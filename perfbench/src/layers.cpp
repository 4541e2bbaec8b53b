#include "layers.hpp"

#include <span>

#include "core/session.hpp"
#include "link/commands.hpp"
#include "link/framing.hpp"

namespace perfbench {

void pump_path_layers(const std::string& workload,
                      const std::function<std::unique_ptr<proto::Scenario>()>& make,
                      rt::SimTime run_for, std::uint64_t op, RunResult& r) {
    // rt alone: the target runs with nothing behind its UART but a byte
    // counter, so the span holds no link or engine work.
    {
        std::unique_ptr<proto::Scenario> s = make();
        std::uint64_t bytes = 0;
        s->target.set_debug_sink(
            [&bytes](int, std::span<const std::uint8_t> b, rt::SimTime) { bytes += b.size(); });
        in_span("rt.run_for", workload, op, [&] { s->target.run_for(run_for); });
        r.layer["rt.sim_ms"] += static_cast<double>(run_for) / rt::kMs;
        r.layer["rt.uart_bytes"] += static_cast<double>(bytes);
    }

    // The same run again, untimed, keeping the wire chunks and their
    // decoded commands as the link and core inputs.
    struct Chunk {
        std::vector<std::uint8_t> bytes;
        rt::SimTime at;
    };
    std::vector<Chunk> chunks;
    std::vector<core::TraceEvent> cmds;
    {
        std::unique_ptr<proto::Scenario> s = make();
        s->target.set_debug_sink([&chunks](int, std::span<const std::uint8_t> b,
                                           rt::SimTime at) {
            chunks.push_back({{b.begin(), b.end()}, at});
        });
        s->target.run_for(run_for);
        link::FrameDecoder dec;
        for (const Chunk& c : chunks) {
            dec.feed(c.bytes);
            for (const auto& payload : dec.take_payloads())
                if (auto cmd = link::decode_command(payload)) cmds.push_back({c.at, *cmd});
        }
    }

    std::size_t encoded = 0;
    in_span("link.encode", workload, op, [&] {
        for (const core::TraceEvent& ev : cmds)
            encoded += link::frame_payload(link::encode_command(ev.cmd)).size();
    });
    std::size_t decoded = 0;
    in_span("link.decode", workload, op, [&] {
        link::FrameDecoder dec;
        for (const Chunk& c : chunks) {
            dec.feed(c.bytes);
            for (const auto& payload : dec.take_payloads())
                if (link::decode_command(payload).has_value()) ++decoded;
        }
    });
    if (decoded != cmds.size() || (encoded == 0 && !cmds.empty()))
        r.fail(workload + ": link replay decoded " + std::to_string(decoded) + " of " +
               std::to_string(cmds.size()) + " commands");

    {
        std::unique_ptr<proto::Scenario> s = make();
        core::DebuggerEngine& engine = s->session->engine();
        in_span("core.ingest", workload, op, [&] {
            for (const core::TraceEvent& ev : cmds) engine.deliver(ev.cmd, ev.t);
        });
    }
    r.layer["link.cmds"] += static_cast<double>(cmds.size());
}

} // namespace perfbench
