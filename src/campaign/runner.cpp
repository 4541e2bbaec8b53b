#include "campaign/runner.hpp"

#include <algorithm>
#include <exception>

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

/// Classifies a run pair into `r`, whose index, seed and kind are set.
void classify(const proto::Scenario& clean, proto::Scenario& faulted, PairResult& r) {
    const auto& clean_trace = clean.session->trace().events();
    const auto& fault_trace = faulted.session->trace().events();

    // Structural faults trip the engine's design-model consistency
    // checker; hand those to replay::bisect for step-level localization.
    if (!faulted.session->divergences().empty()) {
        replay::BisectResult br = faulted.timeline->bisect();
        if (br.found) {
            r.outcome = Outcome::Localized;
            r.method = Method::Bisect;
            r.step = br.step;
            r.t = br.t;
            r.probes = br.probes;
            r.detail = br.reason;
            return;
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
            return;
        }
        const core::Divergence& d = faulted.session->divergences().front();
        r.outcome = Outcome::Localized;
        r.method = Method::Differential;
        r.t = d.t;
        r.detail = d.message;
        return;
    }

    // Value faults never alarm the checker — only the clean twin knows.
    if (auto diff = replay::first_trace_difference(clean_trace, fault_trace)) {
        r.outcome = Outcome::Localized;
        r.method = Method::Differential;
        r.step = diff->step;
        r.t = diff->t;
        r.detail = diff->reason;
        return;
    }

    r.outcome = Outcome::Clean;
}

/// One pair, start to finish: build both twins, advance each, classify.
PairResult run_pair(const CampaignConfig& cfg, int index, codegen::FaultKind kind) {
    PairResult r;
    r.index = index;
    r.model_seed = cfg.seed * 100003u + static_cast<std::uint32_t>(index);
    r.kind = kind;
    TwinScenarios twins = make_twin_scenarios(cfg.gen, r.model_seed, kind);
    if (twins.faulted == nullptr) {
        r.detail = "no applicable element";
        return r;
    }

    // Cadence captures from t = 0 (so bisect's window covers the whole
    // trace) are the anchors bisect's probes restore.
    twins.faulted->timeline->set_auto_period(CampaignConfig::checkpoint_every);
    // A twin whose target throws stops there, as a quarantined hub
    // session does; the pair is still classified and its detail says so.
    std::string crashes;
    for (proto::Scenario* twin : {twins.clean.get(), twins.faulted.get()}) {
        try {
            twin->advance(CampaignConfig::run_for);
        } catch (const std::exception& e) {
            crashes += "; " + twin->name + " crashed: " + e.what();
        } catch (...) {
            crashes += "; " + twin->name + " crashed";
        }
    }

    classify(*twins.clean, *twins.faulted, r);
    if (r.detail.empty()) r.detail = std::move(twins.fault_description);
    r.detail += crashes;
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
    report.pairs.resize(static_cast<std::size_t>(std::max(cfg.pairs, 0)));
    // Each task derives its pair from its own seed alone and writes only
    // its own slot, so the results are the same at any thread count.
    hub::parallel_for(cfg.pairs, cfg.threads, [&](int i) {
        const auto at = static_cast<std::size_t>(i);
        report.pairs[at] = run_pair(cfg, i, kinds[at % kinds.size()]);
    });
    for (const PairResult& r : report.pairs) tally(report, r);
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
