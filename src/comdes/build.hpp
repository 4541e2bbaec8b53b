// Fluent builders for constructing COMDES models programmatically.
//
// These are the ergonomic layer the examples and tests use; everything
// they produce is an ordinary meta::Model over the COMDES metamodel, so
// models can equally come from the text serialization.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "comdes/metamodel.hpp"
#include "meta/model.hpp"

namespace gmdf::comdes {

class ActorBuilder;
class SmBuilder;

/// Builds a System with signals and actors. Owns the model.
class SystemBuilder {
public:
    explicit SystemBuilder(std::string name);

    SystemBuilder(const SystemBuilder&) = delete;
    SystemBuilder& operator=(const SystemBuilder&) = delete;
    SystemBuilder(SystemBuilder&&) noexcept = default;
    SystemBuilder& operator=(SystemBuilder&&) noexcept = default;

    /// type: "bool_" | "int_" | "real_".
    meta::ObjectId add_signal(const std::string& name, const std::string& type = "real_",
                              double init = 0.0);

    /// Adds an actor running on `node` with the given period (deadline
    /// defaults to the period).
    ActorBuilder add_actor(const std::string& name, std::int64_t period_us,
                           std::int64_t deadline_us = 0, std::int64_t node = 0);

    [[nodiscard]] meta::Model& model() { return model_; }
    [[nodiscard]] const meta::Model& model() const { return model_; }

    /// A builder over a deep copy of this model (object ids preserved)
    /// whose System is renamed to `name`.
    [[nodiscard]] SystemBuilder clone(std::string name) const;

    /// Moves the finished model out of the builder.
    [[nodiscard]] meta::Model take() { return std::move(model_); }

private:
    SystemBuilder(meta::Model model, meta::ObjectId system)
        : model_(std::move(model)), system_(system) {}

    meta::Model model_;
    meta::ObjectId system_;
};

/// Builds one actor's function-block network.
class ActorBuilder {
public:
    ActorBuilder(meta::Model& model, meta::ObjectId actor, meta::ObjectId network);

    /// Adds a BasicFB. `params` layout is kind-specific (see fblib.hpp);
    /// `expr` is only meaningful for kind "expression_".
    meta::ObjectId add_basic(const std::string& name, const std::string& kind,
                             std::initializer_list<double> params = {},
                             const std::string& expr = {});

    /// Adds a StateMachineFB with declared input/output pins; configure
    /// states and transitions through the returned SmBuilder.
    SmBuilder add_sm(const std::string& name, std::vector<std::string> inputs,
                     std::vector<std::string> outputs);

    /// Wires from_fb.from_pin -> to_fb.to_pin.
    void connect(meta::ObjectId from_fb, const std::string& from_pin, meta::ObjectId to_fb,
                 const std::string& to_pin);

    /// Latches `signal` into fb.pin at task release.
    void bind_input(meta::ObjectId signal, meta::ObjectId fb, const std::string& pin);

    /// Latches fb.pin into `signal` at the task deadline.
    void bind_output(meta::ObjectId fb, const std::string& pin, meta::ObjectId signal);

    [[nodiscard]] meta::ObjectId actor_id() const { return actor_; }
    [[nodiscard]] meta::ObjectId network_id() const { return network_; }

private:
    meta::Model* model_;
    meta::ObjectId actor_;
    meta::ObjectId network_;
};

/// Builds the states and transitions of one StateMachineFB.
class SmBuilder {
public:
    SmBuilder(meta::Model& model, meta::ObjectId sm);

    /// Adds a state; `entry_actions` are (output pin, expression) pairs
    /// executed on entry. The first added state becomes the initial state
    /// unless set_initial() overrides it.
    meta::ObjectId add_state(const std::string& name,
                             std::initializer_list<std::pair<std::string, std::string>>
                                 entry_actions = {});

    /// Adds a transition. `event` names a bool input pin ("" = none),
    /// `guard` is an expression over input pins ("" = always true).
    meta::ObjectId add_transition(meta::ObjectId from, meta::ObjectId to,
                                  const std::string& event = {}, const std::string& guard = {},
                                  std::initializer_list<std::pair<std::string, std::string>>
                                      actions = {},
                                  std::int64_t priority = 0);

    void set_initial(meta::ObjectId state);

    [[nodiscard]] meta::ObjectId sm_id() const { return sm_; }

private:
    meta::Model* model_;
    meta::ObjectId sm_;
    bool has_initial_ = false;
};

} // namespace gmdf::comdes
