#include "campaign/runner.hpp"

#include <algorithm>

#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "replay/compare.hpp"

namespace gmdf::campaign {

const char* to_string(Outcome outcome) {
    switch (outcome) {
    case Outcome::Skipped: return "skipped";
    case Outcome::Clean: return "clean";
    case Outcome::Localized: return "localized";
    }
    return "?";
}

const char* to_string(Method method) {
    switch (method) {
    case Method::None: return "none";
    case Method::Bisect: return "bisect";
    case Method::Differential: return "differential";
    }
    return "?";
}

MakeResult make_generated_scenario(const GenSpec& spec, std::uint32_t model_seed,
                                   std::optional<codegen::FaultKind> fault) {
    MakeResult out;
    std::string name = "gen_" + std::to_string(model_seed);
    if (fault.has_value()) name += std::string("_") + codegen::to_string(*fault);
    auto scenario = std::make_unique<proto::Scenario>(std::move(name));
    proto::generate_scenario(*scenario, spec, model_seed);

    if (fault.has_value()) {
        scenario->mutated =
            std::make_unique<meta::Model>(scenario->sys.model().clone());
        auto report = codegen::inject_fault(*scenario->mutated, *fault, model_seed);
        if (!report.has_value()) return out; // no applicable element: skipped
        out.fault_description = report->description;
    }
    if (!proto::validate_scenario(*scenario)) return MakeResult{};
    proto::wire_scenario(*scenario);
    out.scenario = std::move(scenario);
    return out;
}

TwinScenarios make_twin_scenarios(const GenSpec& spec, std::uint32_t model_seed,
                                  codegen::FaultKind fault) {
    auto clean = std::make_unique<proto::Scenario>("gen_" + std::to_string(model_seed));
    proto::generate_scenario(*clean, spec, model_seed);
    auto mutated = std::make_unique<meta::Model>(clean->sys.model().clone());
    auto report = codegen::inject_fault(*mutated, fault, model_seed);
    if (!report.has_value()) return {}; // no applicable element: skipped
    // Validation never reads the System's own name, so this one run also
    // covers the faulted twin's renamed clone.
    if (!proto::validate_scenario(*clean)) return {};

    auto faulted = std::make_unique<proto::Scenario>(clean->name + "_" +
                                                     codegen::to_string(fault));
    faulted->sys = clean->sys.clone(faulted->name + "_system");
    faulted->target.set_network_latency(clean->target.network_latency());
    faulted->stimuli = clean->stimuli;
    faulted->mutated = std::move(mutated);
    proto::wire_scenario(*faulted);
    proto::wire_scenario(*clean);
    return {std::move(clean), std::move(faulted), std::move(report->description)};
}

namespace {

/// One pair resident on the wave's fleet, awaiting classification.
struct LivePair {
    int index = 0;
    std::uint32_t model_seed = 0;
    codegen::FaultKind kind = codegen::FaultKind::WrongTransitionTarget;
    int clean_id = 0;
    int fault_id = 0;
    std::string fault_description;
};

PairResult classify(hub::SessionRegistry& registry, const LivePair& live) {
    PairResult r;
    r.index = live.index;
    r.model_seed = live.model_seed;
    r.kind = live.kind;

    auto* clean_entry = registry.find(live.clean_id);
    auto* fault_entry = registry.find(live.fault_id);
    const auto& clean_trace = clean_entry->session().trace().events();
    const auto& fault_trace = fault_entry->session().trace().events();

    // Structural faults trip the engine's design-model consistency
    // checker; hand those to replay::bisect for step-level localization.
    if (!fault_entry->session().divergences().empty()) {
        replay::BisectResult br = fault_entry->scenario->timeline->bisect();
        if (br.found) {
            r.outcome = Outcome::Localized;
            r.method = Method::Bisect;
            r.step = br.step;
            r.t = br.t;
            r.probes = br.probes;
            r.detail = br.reason;
            return r;
        }
        // Bisect's window can miss a divergence at the baseline instant
        // (e.g. a wrong initial state firing at t=0); the differential
        // twin comparison still pins it.
        if (auto diff = replay::first_trace_difference(clean_trace, fault_trace)) {
            r.outcome = Outcome::Localized;
            r.method = Method::Differential;
            r.step = diff->step;
            r.t = diff->t;
            r.detail = diff->reason;
            return r;
        }
        const core::Divergence& d = fault_entry->session().divergences().front();
        r.outcome = Outcome::Localized;
        r.method = Method::Differential;
        r.t = d.t;
        r.detail = d.message;
        return r;
    }

    // Value faults never alarm the checker — only the clean twin knows.
    if (auto diff = replay::first_trace_difference(clean_trace, fault_trace)) {
        r.outcome = Outcome::Localized;
        r.method = Method::Differential;
        r.step = diff->step;
        r.t = diff->t;
        r.detail = diff->reason;
        return r;
    }

    r.outcome = Outcome::Clean;
    return r;
}

void tally(CampaignReport& report, const PairResult& r) {
    KindTally& k = report.by_kind[r.kind];
    ++k.pairs;
    switch (r.outcome) {
    case Outcome::Localized:
        ++k.localized;
        ++report.localized;
        if (r.method == Method::Bisect)
            ++k.bisect;
        else
            ++k.differential;
        break;
    case Outcome::Clean:
        ++k.clean;
        ++report.clean;
        break;
    case Outcome::Skipped:
        ++k.skipped;
        ++report.skipped;
        break;
    }
}

} // namespace

CampaignReport run_campaign(const CampaignConfig& cfg) {
    CampaignReport report;
    report.config = cfg;
    const std::vector<codegen::FaultKind> kinds = codegen::all_fault_kinds();
    const int pairs = cfg.pairs < 0 ? 0 : cfg.pairs;
    const int wave_size = cfg.wave < 1 ? 1 : cfg.wave;
    const int threads = cfg.threads < 1 ? 1 : cfg.threads;

    for (int wave_start = 0; wave_start < pairs; wave_start += wave_size) {
        const int wave_end = std::min(pairs, wave_start + wave_size);
        const int wave_n = wave_end - wave_start;
        hub::SessionRegistry registry;
        hub::ShardedScheduler scheduler;
        scheduler.set_threads(threads);
        // Wave sessions never interact, so slice granularity only costs
        // overhead here: one slice per checkpoint cadence gives the
        // faulted twins the same capture instants (and therefore the
        // same bisect windows) as the default 10 ms slicing, at a tenth
        // of the round-robin bookkeeping.
        if (cfg.checkpoint_every > 0) scheduler.set_budget(cfg.checkpoint_every);

        // Build every pair's twin scenarios in parallel: each pair is
        // derived from its own seed alone.
        std::vector<TwinScenarios> twins(static_cast<std::size_t>(wave_n));
        hub::parallel_for(wave_n, threads, [&](int j) {
            const int i = wave_start + j;
            const std::uint32_t model_seed =
                cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            const codegen::FaultKind kind =
                kinds[static_cast<std::size_t>(i) % kinds.size()];
            TwinScenarios& pair = twins[static_cast<std::size_t>(j)];
            pair = make_twin_scenarios(cfg.gen, model_seed, kind);
            if (pair.faulted == nullptr) return; // skipped

            // Baseline checkpoint at t=0 so bisect's search window covers
            // the whole trace, then cadence captures during the pump,
            // which bisect's probes restore as anchors.
            pair.faulted->timeline->set_auto_period(cfg.checkpoint_every);
            pair.faulted->timeline->capture_now();
        });

        // Adopt in pair order (stable session ids), then pump the whole
        // wave across the scheduler's shards.
        std::vector<LivePair> live;
        std::vector<PairResult> skipped;
        for (int j = 0; j < wave_n; ++j) {
            const int i = wave_start + j;
            const std::uint32_t model_seed =
                cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            const codegen::FaultKind kind =
                kinds[static_cast<std::size_t>(i) % kinds.size()];
            TwinScenarios& pair = twins[static_cast<std::size_t>(j)];
            if (pair.faulted == nullptr) {
                PairResult r;
                r.index = i;
                r.model_seed = model_seed;
                r.kind = kind;
                r.outcome = Outcome::Skipped;
                r.detail = "no applicable element";
                skipped.push_back(r);
                continue;
            }
            const std::string tag = "p" + std::to_string(i);
            auto* clean_entry = registry.adopt(std::move(pair.clean), tag + "_clean");
            auto* fault_entry = registry.adopt(std::move(pair.faulted), tag + "_fault");
            live.push_back({i, model_seed, kind, clean_entry->id, fault_entry->id,
                            std::move(pair.fault_description)});
        }

        scheduler.pump(registry, cfg.run_for, [](hub::SessionRegistry::Entry& entry) {
            entry.scenario->timeline->maybe_capture();
        });

        // Classify in parallel (bisect re-executes only its own pair's
        // sessions), then assemble the report in pair order.
        std::vector<PairResult> results(live.size());
        hub::parallel_for(static_cast<int>(live.size()), threads, [&](int j) {
            const LivePair& pair = live[static_cast<std::size_t>(j)];
            PairResult r = classify(registry, pair);
            if (r.detail.empty()) r.detail = pair.fault_description;
            results[static_cast<std::size_t>(j)] = std::move(r);
        });

        std::size_t next_skipped = 0;
        std::size_t next_live = 0;
        for (int j = 0; j < wave_n; ++j) {
            const int i = wave_start + j;
            PairResult r;
            if (next_skipped < skipped.size() && skipped[next_skipped].index == i)
                r = std::move(skipped[next_skipped++]);
            else
                r = std::move(results[next_live++]);
            report.pairs.push_back(std::move(r));
            tally(report, report.pairs.back());
        }
    }
    return report;
}

std::vector<std::string> CampaignReport::summary_lines() const {
    std::vector<std::string> lines;
    lines.push_back("pairs " + std::to_string(pairs.size()) + " seed " +
                    std::to_string(config.seed));
    for (codegen::FaultKind kind : codegen::all_fault_kinds()) {
        auto it = by_kind.find(kind);
        const KindTally k = it == by_kind.end() ? KindTally{} : it->second;
        lines.push_back(std::string(codegen::to_string(kind)) + ": localized " +
                        std::to_string(k.localized) + " (bisect " +
                        std::to_string(k.bisect) + ", diff " +
                        std::to_string(k.differential) + "), clean " +
                        std::to_string(k.clean) + ", skipped " +
                        std::to_string(k.skipped));
    }
    lines.push_back("total: localized " + std::to_string(localized) + ", clean " +
                    std::to_string(clean) + ", skipped " + std::to_string(skipped) +
                    ", unclassified " + std::to_string(unclassified()));
    return lines;
}

} // namespace gmdf::campaign
