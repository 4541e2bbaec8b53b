// The debug command set exchanged between target and debugger host.
//
// In the paper's active solution, generated code emits commands through
// the command interface while executing; the GDM reacts to them. The host
// can also send control commands back (pause/resume/step), and the
// passive (JTAG) path synthesizes the same event commands host-side from
// observed memory changes, so the engine is transport-agnostic.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gmdf::link {

/// Command kinds. Target -> host kinds carry model-element ids; host ->
/// target kinds drive execution control.
enum class Cmd : std::uint8_t {
    // target -> host (events)
    Hello = 1,        ///< a: node id
    TaskStart = 2,    ///< a: actor element id
    TaskEnd = 3,      ///< a: actor element id
    StateEnter = 4,   ///< a: state machine element id, b: state element id
    Transition = 5,   ///< a: state machine element id, b: transition element id
    SignalUpdate = 6, ///< a: signal element id, value: new value
    ModeChange = 7,   ///< a: modal FB element id, b: mode element id
    // host -> target (control)
    Pause = 16,
    Resume = 17,
    Step = 18,
};

[[nodiscard]] const char* to_string(Cmd kind);

/// The target -> host event kinds, in enum-declaration order.
inline constexpr Cmd kEventCommandKinds[] = {
    Cmd::Hello,      Cmd::TaskStart,    Cmd::TaskEnd,    Cmd::StateEnter,
    Cmd::Transition, Cmd::SignalUpdate, Cmd::ModeChange,
};

/// Names of the event command kinds (to_string over kEventCommandKinds);
/// drives the GDM metamodel's command enum and the protocol help, so the
/// wire names exist in exactly one place.
[[nodiscard]] std::vector<std::string> event_command_names();

/// One debug command. `a` / `b` carry model object ids (meta::ObjectId
/// raw values, which fit 32 bits in practice and are range-checked on
/// encode); `value` carries a signal value as IEEE single.
struct Command {
    Cmd kind = Cmd::Hello;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    float value = 0.0f;

    friend bool operator==(const Command&, const Command&) = default;

    [[nodiscard]] std::string to_string() const;
};

/// Fixed 13-byte payload: kind(1) a(4,LE) b(4,LE) value(4,IEEE754 LE).
inline constexpr std::size_t kCommandPayloadSize = 13;

/// Encodes to the fixed payload layout (not yet framed for the wire).
[[nodiscard]] std::array<std::uint8_t, kCommandPayloadSize> encode_command(const Command& cmd);

/// Decodes a payload; nullopt when the size or kind is invalid.
[[nodiscard]] std::optional<Command> decode_command(std::span<const std::uint8_t> payload);

} // namespace gmdf::link
