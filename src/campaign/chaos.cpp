#include "campaign/chaos.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "hub/controller.hpp"
#include "net/client.hpp"
#include "proto/script.hpp"

namespace gmdf::campaign {

const char* to_string(ChaosOutcome outcome) {
    switch (outcome) {
    case ChaosOutcome::Clean: return "clean";
    case ChaosOutcome::Resumed: return "resumed";
    case ChaosOutcome::Degraded: return "degraded";
    case ChaosOutcome::Lost: return "lost";
    }
    return "?";
}

ChaosOutcome chaos_outcome(const proto::Response& probe, std::uint64_t errors,
                           std::uint64_t reconnects) {
    if (net::is_transport_error(probe)) return ChaosOutcome::Lost;
    if (!probe.ok() || errors > 0) return ChaosOutcome::Degraded;
    return reconnects > 0 ? ChaosOutcome::Resumed : ChaosOutcome::Clean;
}

namespace {

/// Redial policy handed to every client channel; the initial dial
/// retries as often.
constexpr int kReconnectAttempts = 8;
constexpr int kReconnectBaseDelayMs = 2;

/// The per-client .gds workload. Sessions are pre-opened on the hub (so
/// a proxy cut cannot destroy them — the server only releases sessions
/// a connection itself opened), and the attach is what the channel's
/// redial path re-plays after every reconnect.
std::string workload_script(int index, int rounds) {
    std::ostringstream s;
    s << "let me c" << index << "\n"
      << "attach $me\n"
      << "repeat " << rounds << "\n"
      << "run 20\n"
      << "query signal led\n"
      << "end\n"
      << "query stats\n";
    return s.str();
}

void drive_client(net::Channel* channel, const ChaosCampaignConfig& cfg, int index,
                  ChaosClientResult& result) {
    std::istringstream in(workload_script(index, cfg.rounds));
    std::ostringstream transcript; // per-client; inspected only on failure
    proto::ScriptResult script = proto::run_script(*channel, in, transcript);
    result.requests = script.requests;
    result.errors = script.errors;
    if (!script.diagnostics.empty()) {
        const proto::ScriptDiagnostic& d = script.diagnostics.front();
        result.detail = "line " + std::to_string(d.line) + ": " + d.message;
    }

    // The verdict probe: one more round trip on the same channel. A
    // channel the hub still answers (redialing first if its socket died
    // mid-workload) is recovered; one it cannot is lost.
    proto::Response probe = channel->execute_line("session list");
    (void)channel->drain_event_lines();

    result.reconnects = channel->reconnects();
    result.reconnect_time_us = channel->reconnect_time_us();
    result.outcome = chaos_outcome(probe, result.errors, result.reconnects);
    // A lost client's account is the probe the hub never answered.
    if (result.outcome == ChaosOutcome::Lost || (!probe.ok() && result.detail.empty()))
        result.detail = "final probe: " + probe.message;
}

} // namespace

ChaosReport run_chaos_campaign(const ChaosCampaignConfig& cfg) {
    ChaosReport report;
    report.config = cfg;
    report.clients.resize(static_cast<std::size_t>(cfg.clients));

    hub::HubController hub;
    for (int i = 0; i < cfg.clients; ++i) {
        if (hub.open("blinker", "c" + std::to_string(i)) == nullptr) return report;
    }

    // The idle timeout is load-bearing, not decorative: a corrupted
    // length prefix can leave a connection wedged mid-frame — both ends
    // alive, both waiting for bytes that will never come. The server's
    // idle close turns that wedge into an EOF the client's redial
    // machinery classifies and recovers from.
    net::ServerConfig server_cfg;
    server_cfg.idle_timeout_ms = 250;
    net::Server server(hub, server_cfg);
    std::string error;
    if (!server.start(&error)) return report;
    std::atomic<bool> stop_server{false};
    std::thread server_thread([&] { server.run(stop_server); });

    net::ChaosConfig proxy_cfg;
    proxy_cfg.upstream_port = server.port();
    proxy_cfg.seed = cfg.seed;
    proxy_cfg.fault_rate = cfg.fault_rate;
    net::ChaosProxy proxy(proxy_cfg);
    std::atomic<bool> stop_proxy{false};
    std::thread proxy_thread;
    if (proxy.start(&error)) {
        proxy_thread = std::thread([&] { proxy.run(stop_proxy); });

        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(cfg.clients));
        for (int i = 0; i < cfg.clients; ++i) {
            workers.emplace_back([&, i] {
                ChaosClientResult& result = report.clients[static_cast<std::size_t>(i)];
                result.index = i;

                // The initial dial runs through the proxy too, so it can
                // be faulted like anything else: retry it the same
                // number of times the channel itself would redial.
                std::unique_ptr<net::Channel> channel;
                std::string dial_error;
                for (int attempt = 0; attempt < kReconnectAttempts; ++attempt) {
                    channel = net::Channel::connect("127.0.0.1", proxy.port(),
                                                    &dial_error);
                    if (channel != nullptr) break;
                    std::this_thread::sleep_for(std::chrono::milliseconds(
                        kReconnectBaseDelayMs * (attempt + 1)));
                }
                if (channel == nullptr) {
                    result.outcome = ChaosOutcome::Lost;
                    result.detail = "dial: " + dial_error;
                    return;
                }
                net::Channel::ReconnectConfig rc;
                rc.max_attempts = kReconnectAttempts;
                rc.base_delay_ms = kReconnectBaseDelayMs;
                rc.max_delay_ms = 250;
                // Decorrelate the clients' backoff without decoupling
                // the run from its seed.
                rc.jitter_seed = cfg.seed * 2654435761u + static_cast<std::uint32_t>(i);
                channel->set_reconnect(rc);

                drive_client(channel.get(), cfg, i, result);
            });
        }
        for (std::thread& t : workers) t.join();

        stop_proxy.store(true);
        proxy_thread.join();
        proxy.stop();
    }

    stop_server.store(true);
    server_thread.join();
    report.server_stats = server.stats();
    server.stop(); // uninstalls the hub hooks before the direct probe

    // "Zero hub crashes", affirmatively: the hub must still answer a
    // coherent in-process request after everything the wire did to it.
    report.hub_alive = hub.execute_line("session stats").ok();

    for (const ChaosClientResult& c : report.clients) {
        switch (c.outcome) {
        case ChaosOutcome::Clean: ++report.clean; break;
        case ChaosOutcome::Resumed: ++report.resumed; break;
        case ChaosOutcome::Degraded: ++report.degraded; break;
        case ChaosOutcome::Lost: ++report.lost; break;
        }
        report.total_reconnects += c.reconnects;
        report.reconnect_time_us += c.reconnect_time_us;
    }
    report.proxy_stats = proxy.stats();
    return report;
}

std::vector<std::string> ChaosReport::summary_lines() const {
    std::vector<std::string> lines;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "chaos campaign: %d clients seed %u fault rate %.1f%%",
                  config.clients, config.seed, config.fault_rate * 100.0);
    lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "  clients: clean %d resumed %d degraded %d lost %d unclassified %d",
                  clean, resumed, degraded, lost, unclassified());
    lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "  proxy: %llu chunks, %llu torn %llu stalled %llu cut %llu corrupted",
                  static_cast<unsigned long long>(proxy_stats.chunks),
                  static_cast<unsigned long long>(proxy_stats.torn),
                  static_cast<unsigned long long>(proxy_stats.stalls),
                  static_cast<unsigned long long>(proxy_stats.disconnects),
                  static_cast<unsigned long long>(proxy_stats.corruptions));
    lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "  server: %llu requests, %llu connections accepted, "
                  "%llu protocol errors, 0 crashes",
                  static_cast<unsigned long long>(server_stats.requests),
                  static_cast<unsigned long long>(server_stats.accepted),
                  static_cast<unsigned long long>(server_stats.protocol_errors));
    lines.emplace_back(buf);
    if (total_reconnects > 0) {
        std::snprintf(buf, sizeof(buf), "  reconnects: %llu (mean resume %lld us)",
                      static_cast<unsigned long long>(total_reconnects),
                      static_cast<long long>(reconnect_time_us /
                                             static_cast<std::int64_t>(total_reconnects)));
        lines.emplace_back(buf);
    }
    lines.emplace_back(std::string("  hub: ") +
                       (hub_alive ? "alive and coherent" : "UNRESPONSIVE"));
    lines.emplace_back(std::string("chaos contract ") + (passed() ? "PASS" : "FAIL"));
    return lines;
}

} // namespace gmdf::campaign
