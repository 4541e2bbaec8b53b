// gmdf_serve — the GMDF debug hub behind a TCP listener.
//
// Hosts the same hub gmdf_dbg drives over stdin, but serves it to N
// concurrent network clients through net::Server: gmdf_dbg --connect
// host:port (frame codec, byte-identical transcripts) or plain
// netcat/telnet (line codec). Clients share one fleet: they can open
// their own sessions, attach to existing ones, and scope themselves
// with the acl verb; `session stats net` reports server and
// per-connection counters.
//
//   ./gmdf_serve                         # blinker on an ephemeral port
//   ./gmdf_serve --model turntable --port 7421
//   ./gmdf_dbg --connect 127.0.0.1:7421 --script examples/quickstart.gds
//
// Prints "listening <host>:<port>" once the socket is bound (scripts
// wait for that line, then parse the port). SIGINT/SIGTERM drain and
// exit 0.
#include <arpa/inet.h>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "hub/controller.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "proto/message.hpp"
#include "proto/scenarios.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

/// Parses all of `text` as a decimal integer in [lo, T's maximum], or
/// says why not.
template <typename T>
bool parse_number(const std::string& flag, const char* text, std::uint64_t lo, T& out) {
    const auto v = gmdf::proto::parse_u64(text);
    if (!v.has_value() || *v < lo ||
        *v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        std::cerr << "gmdf_serve: bad value '" << text << "' for " << flag << "\n";
        return false;
    }
    out = static_cast<T>(*v);
    return true;
}

int usage(std::ostream& out, int code) {
    out << "usage: gmdf_serve [--model <name>] [--host <addr>] [--port <n>] "
           "[--max-conn <n>] [--threads <n>]\n"
           "                  [--idle-timeout-ms <n>] [--accept-high-water <n>] "
           "[--watchdog-us <n>] [--watchdog-strikes <n>]\n"
           "                  [--trace-out <file>]\n\n"
        << "Serves a GMDF debug hub over TCP (frame or line codec).\n"
        << "  --model <name>    built-in scenario of the seed session:";
    for (const std::string& name : gmdf::proto::scenario_names()) out << " " << name;
    out << " (default blinker)\n"
        << "  --host <addr>     bind address (default 127.0.0.1)\n"
        << "  --port <n>        TCP port; 0 picks an ephemeral one (default 0)\n"
        << "  --max-conn <n>    concurrent connection cap (default 10000)\n"
        << "  --threads <n>     fleet pump worker threads; per-session behavior\n"
        << "                    is identical at any count (default 1)\n"
        << "  --idle-timeout-ms <n>   close connections silent this long; frame\n"
        << "                    clients stay alive with heartbeat pings (default off)\n"
        << "  --accept-high-water <n> shed new clients with a structured busy\n"
        << "                    reply above this many connections (default off)\n"
        << "  --watchdog-us <n> per-slice wall-clock pump deadline; a session\n"
        << "                    over it repeatedly is quarantined (default off)\n"
        << "  --watchdog-strikes <n>  consecutive overruns before quarantine;\n"
        << "                    needs --watchdog-us (default 3)\n"
        << "  --trace-out <file>  record obs spans (dispatch, pump slices per\n"
        << "                    shard, checkpoints) for the whole run; written as\n"
        << "                    Chrome trace-event JSON (Perfetto) on exit\n"
        << "  --help            this text\n";
    return code;
}

} // namespace

int main(int argc, char** argv) {
    // The server's event loop writes to sockets that can vanish between
    // a readiness report and send(); MSG_NOSIGNAL covers those sends, and
    // ignoring SIGPIPE covers everything else (a late flush on a dead fd
    // must surface as EPIPE, never kill the hub).
    std::signal(SIGPIPE, SIG_IGN);

    std::string model = "blinker";
    int threads = 1;
    std::string trace_out;
    gmdf::hub::WatchdogConfig watchdog;
    bool strikes_given = false;
    gmdf::net::ServerConfig config;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool ok = true;
        if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
        if (arg == "--model" && i + 1 < argc) {
            model = argv[++i];
        } else if (arg == "--host" && i + 1 < argc) {
            config.host = argv[++i];
        } else if (arg == "--port" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 0, config.port);
        } else if (arg == "--max-conn" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 1, config.max_connections);
        } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 0, config.idle_timeout_ms);
        } else if (arg == "--accept-high-water" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 0, config.accept_high_water);
        } else if (arg == "--watchdog-us" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 0, watchdog.slice_limit_us);
        } else if (arg == "--watchdog-strikes" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 1, watchdog.max_strikes);
            strikes_given = true;
        } else if (arg == "--trace-out" && i + 1 < argc) {
            trace_out = argv[++i];
        } else if (arg == "--threads" && i + 1 < argc) {
            ok = parse_number(arg, argv[++i], 1, threads);
        } else {
            std::cerr << "gmdf_serve: unknown argument '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
        if (!ok) return usage(std::cerr, 2);
    }
    if (strikes_given && !watchdog.enabled()) {
        std::cerr << "gmdf_serve: --watchdog-strikes needs a --watchdog-us deadline\n";
        return usage(std::cerr, 2);
    }

    gmdf::hub::HubController hub;
    hub.scheduler().set_threads(threads);
    if (watchdog.enabled()) hub.scheduler().set_watchdog(watchdog);
    auto* seed = hub.open(model, model);
    if (seed == nullptr) {
        std::cerr << "gmdf_serve: no scenario '" << model << "'\n";
        return usage(std::cerr, 2);
    }

    gmdf::net::Server server(hub, config);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "gmdf_serve: " << error << "\n";
        return 1;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (!trace_out.empty()) {
        gmdf::obs::tracer().start();
        gmdf::obs::tracer().set_thread_name(gmdf::obs::current_trace_tid(), "hub");
    }

    std::cout << "listening " << config.host << ":" << server.port()
              << " (scenario '" << seed->name << "' hosted as session "
              << seed->id << ")" << std::endl;

    server.run(g_stop);

    if (!trace_out.empty()) {
        gmdf::obs::tracer().stop();
        std::ofstream trace_file(trace_out, std::ios::binary);
        if (!trace_file) {
            std::cerr << "gmdf_serve: cannot write trace to '" << trace_out << "'\n";
        } else {
            gmdf::obs::tracer().write_chrome_json(trace_file);
            std::cout << "gmdf_serve: wrote trace " << trace_out << " ("
                      << gmdf::obs::tracer().event_count() << " spans";
            if (const auto dropped = gmdf::obs::tracer().dropped(); dropped > 0)
                std::cout << ", " << dropped << " dropped";
            std::cout << ")\n";
        }
    }

    const auto& stats = server.stats();
    std::cout << "gmdf_serve: drained (" << stats.accepted << " connections, "
              << stats.requests << " requests, " << stats.bytes_in << " bytes in, "
              << stats.bytes_out << " bytes out)\n";
    server.stop();
    return 0;
}
