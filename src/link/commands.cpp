#include "link/commands.hpp"

#include <bit>
#include <sstream>

namespace gmdf::link {

const char* to_string(Cmd kind) {
    switch (kind) {
    case Cmd::Hello: return "HELLO";
    case Cmd::TaskStart: return "TASK_START";
    case Cmd::TaskEnd: return "TASK_END";
    case Cmd::StateEnter: return "STATE_ENTER";
    case Cmd::Transition: return "TRANSITION";
    case Cmd::SignalUpdate: return "SIGNAL_UPDATE";
    case Cmd::ModeChange: return "MODE_CHANGE";
    case Cmd::Pause: return "PAUSE";
    case Cmd::Resume: return "RESUME";
    case Cmd::Step: return "STEP";
    }
    return "UNKNOWN";
}

std::vector<std::string> event_command_names() {
    std::vector<std::string> names;
    for (Cmd kind : kEventCommandKinds) names.emplace_back(to_string(kind));
    return names;
}

std::string Command::to_string() const {
    std::ostringstream os;
    os << link::to_string(kind) << "(a=" << a << ", b=" << b << ", v=" << value << ")";
    return os.str();
}

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
    out[2] = static_cast<std::uint8_t>(v >> 16);
    out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
    return static_cast<std::uint32_t>(in[at]) |
           (static_cast<std::uint32_t>(in[at + 1]) << 8) |
           (static_cast<std::uint32_t>(in[at + 2]) << 16) |
           (static_cast<std::uint32_t>(in[at + 3]) << 24);
}

bool valid_kind(std::uint8_t k) {
    return (k >= 1 && k <= 7) || (k >= 16 && k <= 18);
}

} // namespace

std::array<std::uint8_t, kCommandPayloadSize> encode_command(const Command& cmd) {
    std::array<std::uint8_t, kCommandPayloadSize> out{};
    out[0] = static_cast<std::uint8_t>(cmd.kind);
    put_u32(&out[1], cmd.a);
    put_u32(&out[5], cmd.b);
    put_u32(&out[9], std::bit_cast<std::uint32_t>(cmd.value));
    return out;
}

std::optional<Command> decode_command(std::span<const std::uint8_t> payload) {
    if (payload.size() != kCommandPayloadSize) return std::nullopt;
    if (!valid_kind(payload[0])) return std::nullopt;
    Command cmd;
    cmd.kind = static_cast<Cmd>(payload[0]);
    cmd.a = get_u32(payload, 1);
    cmd.b = get_u32(payload, 5);
    cmd.value = std::bit_cast<float>(get_u32(payload, 9));
    return cmd;
}

} // namespace gmdf::link
