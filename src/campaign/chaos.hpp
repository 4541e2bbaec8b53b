// Chaos campaign: the fault-hunt idea turned on the debug service
// itself.
//
// Where campaign::run_campaign hunts faults injected into generated
// *models*, the chaos campaign injects faults into the *wire*: it
// stands up a real hub + net::Server, puts a seeded net::ChaosProxy in
// front, and drives N concurrent reconnect-enabled net::Channel clients
// through .gds workloads while the proxy tears frames, stalls bytes,
// corrupts them, and cuts connections mid-request.
//
// The campaign contract mirrors the model campaign's: every client ends
// in exactly one bucket and the hub survives —
//
//   clean     the workload completed with no errors and no redials
//             (it never met a fault);
//   resumed   the workload completed with no errors after at least one
//             automatic reconnect-and-reattach (the designed recovery);
//   degraded  some requests, the final probe included, came back as
//             the hub's error responses (a corrupted byte becomes a
//             structured protocol error by design — classified residue,
//             not a malfunction), but the hub answered the final probe;
//   lost      the hub sent no answer to the final probe: the channel
//             reports its own transport failure (its redials ran out,
//             or the probe's one resend after a cut, a protocol-error
//             frame or an unparsable response drew another).
//
// Zero unclassified clients and a live hub (an in-process probe after
// the run answers coherently) is the pass condition gmdf_campaign
// --chaos enforces in CI. The fault schedule is seeded; wall-clock
// interleaving varies, bucket *membership* is what the contract pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/chaos.hpp"
#include "net/server.hpp"
#include "proto/message.hpp"

namespace gmdf::campaign {

struct ChaosCampaignConfig {
    int clients = 8;          ///< concurrent channels (gmdf_campaign --pairs)
    int rounds = 6;           ///< run/query rounds per client workload
    std::uint32_t seed = 1;   ///< proxy fault schedule + client jitter seeds
    double fault_rate = 0.10; ///< per-chunk fault probability at the proxy
};

enum class ChaosOutcome { Clean, Resumed, Degraded, Lost };

[[nodiscard]] const char* to_string(ChaosOutcome outcome);

/// The bucket of one client, from its final probe and its workload's
/// error and redial tallies: lost only when the probe is a
/// net::is_transport_error; any hub answer, ok or error, keeps the
/// channel working, so the client is at worst degraded.
[[nodiscard]] ChaosOutcome chaos_outcome(const proto::Response& probe, std::uint64_t errors,
                                         std::uint64_t reconnects);

struct ChaosClientResult {
    int index = 0;
    ChaosOutcome outcome = ChaosOutcome::Lost;
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;     ///< error responses the workload observed
    std::uint64_t reconnects = 0;       ///< successful redial+reattach cycles
    std::int64_t reconnect_time_us = 0; ///< wall clock those cycles took
    std::string detail; ///< first error; for a lost client, its unanswered probe
};

struct ChaosReport {
    ChaosCampaignConfig config;
    std::vector<ChaosClientResult> clients;
    int clean = 0;
    int resumed = 0;
    int degraded = 0;
    int lost = 0;
    /// The hub answered an in-process `session stats` probe after the
    /// run — the "zero hub crashes" half of the contract.
    bool hub_alive = false;
    std::uint64_t total_reconnects = 0;
    std::int64_t reconnect_time_us = 0; ///< summed dial+handshake+reattach
    net::NetStats server_stats;
    net::ChaosStats proxy_stats;

    /// Clients that ended in no bucket. The contract is 0.
    [[nodiscard]] int unclassified() const {
        return static_cast<int>(clients.size()) - clean - resumed - degraded - lost;
    }
    [[nodiscard]] bool passed() const { return hub_alive && unclassified() == 0; }

    /// Stable human-readable summary (bucket counts, fault tallies, the
    /// hub verdict).
    [[nodiscard]] std::vector<std::string> summary_lines() const;
};

/// Runs a full chaos campaign in-process: hub + server + proxy + N
/// client threads, torn down before returning.
[[nodiscard]] ChaosReport run_chaos_campaign(const ChaosCampaignConfig& cfg);

} // namespace gmdf::campaign
