// Command -> reaction bindings (paper: "GMDF provides a user interface to
// setup commands associated with reaction types").
#pragma once

#include <map>
#include <optional>

#include "link/commands.hpp"

namespace gmdf::core {

/// Reactions the runtime engine can perform on GDM elements.
enum class ReactionType {
    None,
    /// Highlight the element named by the command (exclusive within its
    /// group for state-like elements: entering a state un-highlights the
    /// machine's other states).
    Highlight,
    /// Short flash of an edge (transition fired).
    Pulse,
    /// Update the element's value sublabel (signal updates).
    LabelUpdate,
};

[[nodiscard]] const char* to_string(ReactionType r);

struct ReactionSpec {
    ReactionType type = ReactionType::None;
    /// Whether Highlight clears sibling highlights (same group).
    bool exclusive = false;
};

/// The configurable binding table (command kind -> reaction).
class CommandBindingTable {
public:
    void bind(link::Cmd kind, ReactionSpec spec) { table_[kind] = spec; }

    [[nodiscard]] ReactionSpec lookup(link::Cmd kind) const {
        auto it = table_.find(kind);
        return it == table_.end() ? ReactionSpec{} : it->second;
    }

    [[nodiscard]] std::size_t size() const { return table_.size(); }

    /// The defaults the prototype ships with.
    [[nodiscard]] static CommandBindingTable defaults() {
        CommandBindingTable t;
        t.bind(link::Cmd::StateEnter, {ReactionType::Highlight, /*exclusive=*/true});
        t.bind(link::Cmd::Transition, {ReactionType::Pulse, false});
        t.bind(link::Cmd::SignalUpdate, {ReactionType::LabelUpdate, false});
        t.bind(link::Cmd::ModeChange, {ReactionType::Highlight, true});
        t.bind(link::Cmd::TaskStart, {ReactionType::Highlight, false});
        return t;
    }

private:
    std::map<link::Cmd, ReactionSpec> table_;
};

} // namespace gmdf::core
