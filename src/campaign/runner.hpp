// Campaign runner: mass-produced fault-hunt sweeps.
//
// A campaign manufactures (model, injected-fault) pairs from the seeded
// generator, runs each pair as *twin* sessions — one with the design's
// generated code, one generated from the mutated clone — and classifies
// every pair into exactly one bucket:
//
//   localized  a disagreement was found AND pinned to a step: by
//              replay::bisect when the engine's consistency checker
//              raised divergences (structural faults), else by the
//              differential twin-trace comparison (value faults that
//              never trip the checker, e.g. a flipped parameter sign);
//   clean      the fault was injected but produced no observable
//              difference in this run (masked fault);
//   skipped    inject_fault had no applicable element (e.g. negate-guard
//              on a model whose transitions drew no guards).
//
// Zero crashes and zero unclassified pairs is the campaign contract;
// gmdf_campaign's exit code enforces it in CI. Each pair is one task: it
// builds its twins, advances each (proto::Scenario::advance, as a `run`
// does) and classifies them. `threads` drains the tasks on that many
// hub::parallel_for workers without changing the report.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/generator.hpp"
#include "codegen/faults.hpp"
#include "proto/scenarios.hpp"

namespace gmdf::campaign {

/// Campaign parameters. Everything is derived deterministically from
/// `seed`: pair i uses model seed `seed * 100003 + i` and cycles the
/// fault kinds, so a report is reproducible from (config, seed) alone.
struct CampaignConfig {
    GenSpec gen;
    int pairs = 200;
    std::uint32_t seed = 1;
    /// Worker threads: hub::parallel_for drains the per-pair tasks on
    /// min(threads, pairs, hub::kMaxThreads) workers. 1 (default) runs
    /// the pairs in order on the calling thread. The report is identical
    /// at any thread count: every pair is seeded, built, executed and
    /// classified in isolation, and lands at its own index.
    int threads = 1;

    static constexpr rt::SimTime run_for = 600 * rt::kMs;          ///< per-pair execution span
    static constexpr rt::SimTime checkpoint_every = 100 * rt::kMs; ///< faulted twin's cadence
    /// Pairs per wave in perfbench's traced decomposition of a batch, the
    /// one reader left; it goes when that mirror runs one task per pair.
    static constexpr int wave = 8;
};

/// Scenario construction outcome for one (model, fault) pair.
struct MakeResult {
    std::unique_ptr<proto::Scenario> scenario; ///< null when not applicable
    std::string fault_description;             ///< inject_fault's report
};

/// Builds a generated-model scenario, optionally with `fault` injected
/// into the codegen clone (victim picked from `model_seed`). A null
/// scenario with an empty description means the fault had no applicable
/// element — the campaign's `skipped` bucket.
[[nodiscard]] MakeResult make_generated_scenario(const GenSpec& spec,
                                                 std::uint32_t model_seed,
                                                 std::optional<codegen::FaultKind> fault);

/// Both twins of one campaign pair, or neither (the pair is skipped).
struct TwinScenarios {
    std::unique_ptr<proto::Scenario> clean;   ///< null when skipped
    std::unique_ptr<proto::Scenario> faulted; ///< null when skipped
    std::string fault_description;            ///< inject_fault's report
};

/// Builds a pair's twins from one generation and one validation: the
/// clean twin is generated from `model_seed`, the faulted twin's design
/// is a clone of it (its System renamed, so each twin equals what
/// make_generated_scenario builds), and the faulted twin's code comes
/// from a second clone with `fault` injected (victim picked from
/// `model_seed`). Both null when the fault has no applicable element.
[[nodiscard]] TwinScenarios make_twin_scenarios(const GenSpec& spec, std::uint32_t model_seed,
                                                codegen::FaultKind fault);

/// How one campaigned pair ended. Exactly one of these, always.
enum class Outcome { Skipped, Clean, Localized };

/// What pinned a localized pair to its step.
enum class Method { None, Bisect, Differential };

[[nodiscard]] const char* to_string(Outcome outcome);
[[nodiscard]] const char* to_string(Method method);

struct PairResult {
    int index = 0;
    std::uint32_t model_seed = 0;
    codegen::FaultKind kind = codegen::FaultKind::WrongTransitionTarget;
    Outcome outcome = Outcome::Skipped;
    Method method = Method::None;
    std::size_t step = 0;       ///< localized trace step
    rt::SimTime t = 0;          ///< its simulated time
    std::size_t probes = 0;     ///< bisect re-executions (Bisect only)
    std::string detail;         ///< injected-fault / disagreement account
};

/// Per-fault-kind totals.
struct KindTally {
    int pairs = 0;
    int localized = 0;
    int bisect = 0;       ///< of localized: pinned by replay::bisect
    int differential = 0; ///< of localized: pinned by twin-trace diff
    int clean = 0;
    int skipped = 0;
};

struct CampaignReport {
    CampaignConfig config;
    std::vector<PairResult> pairs;
    std::map<codegen::FaultKind, KindTally> by_kind;
    int localized = 0;
    int clean = 0;
    int skipped = 0;

    /// Pairs that ended in no bucket. The campaign contract is 0.
    [[nodiscard]] int unclassified() const {
        return static_cast<int>(pairs.size()) - localized - clean - skipped;
    }

    /// Stable human-readable summary: one line per fault kind plus a
    /// total line (the hub's `campaign report` body and the golden
    /// campaign transcript).
    [[nodiscard]] std::vector<std::string> summary_lines() const;
};

/// Runs a full campaign. Deterministic for a given config.
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& cfg);

} // namespace gmdf::campaign
