// campaign: campaign::run_campaign at -j1 on one seeded batch, repeated,
// each batch on the next CPU in turn. Set-up is the cold (first) batch of
// a process, timed in this process and in child processes.
// The traced run rebuilds each batch from the runner's public parts
// (make_generated_scenario, SessionRegistry::adopt, ShardedScheduler::pump,
// Timeline::bisect, replay::first_trace_difference) so every phase gets
// its own span, and checks the result against run_campaign pair by pair.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "campaign/runner.hpp"
#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "replay/compare.hpp"

namespace perfbench {

namespace {

/// Pairs per batch: a multiple of the five fault kinds, so every kind is
/// covered equally, and large enough (the size gmdf_campaign's CI gate
/// runs) that a batch's cost varies little from one seed to the next.
constexpr int kPairs = 200;

/// Cold batches timed per run; setup_s is their median. Only a fresh
/// process has a cold batch, so this process times its own first batch
/// and each of the others runs in a child forked before any campaign work.
constexpr int kColdBatches = 5;

/// One pair's result as text: every field a batch is checked on.
std::string pair_text(const campaign::PairResult& p) {
    return std::to_string(p.index) + ' ' + std::to_string(p.model_seed) + ' ' +
           std::to_string(static_cast<int>(p.kind)) + ' ' +
           std::to_string(static_cast<int>(p.outcome)) + ' ' +
           std::to_string(static_cast<int>(p.method)) + ' ' + std::to_string(p.step) + ' ' +
           std::to_string(p.t) + ' ' + std::to_string(p.probes) + ' ' + p.detail + '\n';
}

/// A batch's result as text: its summary lines, then every pair.
std::string report_text(const campaign::CampaignReport& rep) {
    std::string s;
    for (const std::string& line : rep.summary_lines()) s += line + '\n';
    for (const campaign::PairResult& p : rep.pairs) s += pair_text(p);
    return s;
}

/// Runs one batch in a forked child. Returns its wall time in seconds and
/// its report_text; an empty text when the child failed.
std::pair<double, std::string> batch_in_child(const campaign::CampaignConfig& cfg) {
    int fds[2];
    if (::pipe(fds) != 0) return {0.0, {}};
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::close(fds[0]);
        const auto t0 = Clock::now();
        const campaign::CampaignReport rep = campaign::run_campaign(cfg);
        char head[32];
        std::snprintf(head, sizeof(head), "%.9f\n", us_between(t0, Clock::now()) * 1e-6);
        const std::string out = head + report_text(rep);
        for (std::size_t done = 0; done < out.size();) {
            const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) ::_exit(1);
            done += static_cast<std::size_t>(n);
        }
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string in;
    char buf[1 << 16];
    for (ssize_t n; pid > 0 && (n = ::read(fds[0], buf, sizeof(buf))) != 0;) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) break;
        in.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    const std::size_t head_end = in.find('\n');
    if (pid < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        head_end == std::string::npos)
        return {0.0, {}};
    return {std::strtod(in.c_str(), nullptr), in.substr(head_end + 1)};
}

/// Moves the calling thread to the next allowed CPU on every next(), and
/// restores the original mask when destroyed. A single-threaded run
/// otherwise inherits the speed of whichever vCPU it lands on (vCPUs of
/// one host differ by up to a third at the same moment); rotating makes
/// every run sample every CPU alike.
class CpuRotation {
public:
    CpuRotation() {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
    ~CpuRotation() {
        if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(allowed_), &allowed_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next() {
        if (cpus_.empty()) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
    }

private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/// Program counters every batch must repeat exactly.
OpCounts program_counts() {
    obs::Registry& reg = obs::registry();
    return {{"pump_slices", reg.histogram("hub.pump.slice_ns").snapshot().count},
            {"checkpoints", reg.histogram("replay.capture_ns").snapshot().count},
            {"restores", reg.histogram("replay.restore_ns").snapshot().count}};
}

OpCounts batch_counts(const campaign::CampaignReport& rep, const OpCounts& before) {
    OpCounts c = program_counts();
    for (auto& [name, value] : c) value -= before.at(name);
    std::uint64_t probes = 0;
    for (const auto& p : rep.pairs) probes += p.probes;
    c["pairs"] = rep.pairs.size();
    c["localized"] = static_cast<std::uint64_t>(rep.localized);
    c["clean"] = static_cast<std::uint64_t>(rep.clean);
    c["skipped"] = static_cast<std::uint64_t>(rep.skipped);
    c["bisect_probes"] = probes;
    return c;
}

/// One batch rebuilt from run_campaign's public parts, each phase in
/// its own span. Mirrors campaign/runner.cpp at one thread.
std::vector<campaign::PairResult> decomposed_batch(const campaign::CampaignConfig& cfg,
                                                   std::uint64_t op, RunResult& r) {
    const std::string wl = "campaign";
    const std::vector<codegen::FaultKind> kinds = codegen::all_fault_kinds();
    std::vector<campaign::PairResult> out;
    for (int wave_start = 0; wave_start < cfg.pairs; wave_start += cfg.wave) {
        const int wave_end = std::min(cfg.pairs, wave_start + cfg.wave);
        hub::SessionRegistry registry;
        hub::ShardedScheduler scheduler;
        if (cfg.checkpoint_every > 0) scheduler.set_budget(cfg.checkpoint_every);
        struct Live {
            campaign::PairResult base;
            int clean_id = 0;
            int fault_id = 0;
            std::string fault_description;
        };
        std::vector<Live> live;
        std::vector<campaign::PairResult> wave; ///< pair order; live pairs filled below
        std::vector<bool> is_live;
        for (int i = wave_start; i < wave_end; ++i) {
            campaign::PairResult base;
            base.index = i;
            base.model_seed = cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            base.kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
            campaign::MakeResult faulted;
            campaign::MakeResult clean;
            in_span("campaign.make", wl, op, [&] {
                faulted = campaign::make_generated_scenario(cfg.gen, base.model_seed, base.kind);
                if (faulted.scenario != nullptr)
                    clean = campaign::make_generated_scenario(cfg.gen, base.model_seed, std::nullopt);
            });
            if (faulted.scenario == nullptr) {
                base.outcome = campaign::Outcome::Skipped;
                base.detail = "no applicable element";
                wave.push_back(base);
                is_live.push_back(false);
                continue;
            }
            faulted.scenario->timeline->set_auto_period(cfg.checkpoint_every);
            const replay::Checkpoint* cp = in_span("replay.capture", wl, op, [&] {
                return faulted.scenario->timeline->capture_now();
            });
            if (cp != nullptr) {
                r.layer["replay.captures"] += 1;
                r.layer["replay.snapshot_bytes"] += static_cast<double>(cp->snap.size_bytes());
            }
            Live l{base, 0, 0, std::move(faulted.fault_description)};
            const std::string tag = "p" + std::to_string(i);
            in_span("hub.adopt", wl, op, [&] {
                l.clean_id = registry.adopt(std::move(clean.scenario), tag + "_clean")->id;
                l.fault_id = registry.adopt(std::move(faulted.scenario), tag + "_fault")->id;
            });
            live.push_back(std::move(l));
            wave.emplace_back();
            is_live.push_back(true);
        }
        const std::uint64_t slices = scheduler.total_slices();
        in_span("hub.pump", wl, op, [&] {
            scheduler.pump(registry, cfg.run_for, [](hub::SessionRegistry::Entry& e) {
                e.scenario->timeline->maybe_capture();
            });
        });
        r.layer["hub.slices"] += static_cast<double>(scheduler.total_slices() - slices);
        r.layer["hub.sim_ms"] += static_cast<double>(cfg.run_for) / rt::kMs;

        std::size_t next_live = 0;
        for (std::size_t j = 0; j < wave.size(); ++j) {
            if (!is_live[j]) continue;
            Live& l = live[next_live++];
            campaign::PairResult res = l.base;
            auto& clean_trace = registry.find(l.clean_id)->session().trace().events();
            auto* fault_entry = registry.find(l.fault_id);
            const auto& fault_trace = fault_entry->session().trace().events();
            const auto diff = [&] {
                return in_span("replay.diff", wl, op, [&] {
                    return replay::first_trace_difference(clean_trace, fault_trace);
                });
            };
            if (!fault_entry->session().divergences().empty()) {
                const replay::BisectResult br = in_span(
                    "replay.bisect", wl, op, [&] { return fault_entry->scenario->timeline->bisect(); });
                r.layer["bisect.probes"] += static_cast<double>(br.probes);
                if (br.found) {
                    res.outcome = campaign::Outcome::Localized;
                    res.method = campaign::Method::Bisect;
                    res.step = br.step;
                    res.t = br.t;
                    res.probes = br.probes;
                    res.detail = br.reason;
                } else if (auto d = diff()) {
                    res.outcome = campaign::Outcome::Localized;
                    res.method = campaign::Method::Differential;
                    res.step = d->step;
                    res.t = d->t;
                    res.detail = d->reason;
                } else {
                    const core::Divergence& dv = fault_entry->session().divergences().front();
                    res.outcome = campaign::Outcome::Localized;
                    res.method = campaign::Method::Differential;
                    res.t = dv.t;
                    res.detail = dv.message;
                }
            } else if (auto d = diff()) {
                res.outcome = campaign::Outcome::Localized;
                res.method = campaign::Method::Differential;
                res.step = d->step;
                res.t = d->t;
                res.detail = d->reason;
            } else {
                res.outcome = campaign::Outcome::Clean;
            }
            if (res.detail.empty()) res.detail = l.fault_description;
            wave[j] = std::move(res);
        }
        for (auto& p : wave) out.push_back(std::move(p));
    }
    return out;
}

} // namespace

RunResult run_campaign_workload(const Options& opt) {
    RunResult r;
    campaign::CampaignConfig cfg;
    cfg.pairs = kPairs;
    cfg.seed = static_cast<std::uint32_t>(mix_seed(opt.seed, 7) % 1000000u) + 1;
    cfg.threads = 1;

    // Set-up is the cold batch: timed on its own and kept out of the
    // latency samples. The children go first, while this process is fresh,
    // and each cold batch runs on the next CPU in turn, as warm ones do.
    std::vector<double> setup_s;
    std::vector<std::string> child_reports;
    OpCounts before;
    auto t0 = Clock::now();
    campaign::CampaignReport ref;
    {
        CpuRotation rotation;
        for (int k = 1; k < kColdBatches; ++k) {
            rotation.next();
            auto [seconds, text] = batch_in_child(cfg);
            if (text.empty()) {
                r.fail("a cold batch in a child process failed");
                continue;
            }
            setup_s.push_back(seconds);
            child_reports.push_back(std::move(text));
        }
        rotation.next();
        before = program_counts();
        t0 = Clock::now();
        ref = campaign::run_campaign(cfg);
        setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
    }
    r.metrics["setup_s"] = percentile(setup_s, 0.5);
    r.setup_repeats = setup_s.size();
    if (ref.unclassified() != 0 || static_cast<int>(ref.pairs.size()) != kPairs)
        r.fail("reference batch left " + std::to_string(ref.unclassified()) + " pairs unclassified");
    const std::string ref_text = report_text(ref);
    for (const std::string& text : child_reports)
        if (text != ref_text) r.fail("a cold batch in a child process differs from the reference");
    check_stationary(r, batch_counts(ref, before), 0);

    const auto batch_loop = [&](double seconds, LatencyLog& lat, double& cpu_s) {
        const auto end = Clock::now() + std::chrono::duration<double>(seconds);
        const double cpu0 = process_cpu_s();
        CpuRotation rotation;
        do {
            rotation.next();
            before = program_counts();
            t0 = Clock::now();
            const campaign::CampaignReport rep = campaign::run_campaign(cfg);
            lat.add(us_between(t0, Clock::now()));
            ++r.attempted;
            if (report_text(rep) != ref_text || rep.unclassified() != 0) {
                ++r.failed;
                r.fail("batch " + std::to_string(r.attempted) + " differs from the reference");
            }
            check_stationary(r, batch_counts(rep, before), r.attempted);
        } while (Clock::now() < end);
        cpu_s = process_cpu_s() - cpu0;
    };

    LatencyLog warm(opt.seed);
    double warm_cpu = 0;
    batch_loop(std::min(1.0, opt.seconds * 0.1), warm, warm_cpu);
    const std::uint64_t warm_ops = r.attempted;
    const std::uint64_t warm_failed = r.failed;
    LatencyLog main(opt.seed);
    double cpu_s = 0;
    batch_loop(opt.trace ? opt.seconds * 0.5 : opt.seconds, main, cpu_s);
    r.metrics["peak_rss_mb"] = peak_rss_mb();
    const std::uint64_t ops = r.attempted - warm_ops;
    r.attempted = ops;
    r.failed -= warm_failed;
    report_latency(r, main);
    // No separate load-generator thread: the loop around run_campaign is
    // the only non-program work, and it is negligible.
    r.metrics["cpu_us_per_op"] = ops == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(ops);

    if (opt.trace && r.correct) {
        obs::Tracer& tr = obs::tracer();
        tr.set_capacity(std::size_t{1} << 20);
        tr.start();
        std::vector<double> traced;
        const auto end = Clock::now() + std::chrono::duration<double>(opt.seconds * 0.3);
        std::uint64_t op = 0;
        CpuRotation rotation;
        do {
            rotation.next();
            const std::uint64_t b = tr.now_ns();
            const auto pairs = decomposed_batch(cfg, op, r);
            const std::uint64_t e = tr.now_ns();
            record_span("campaign.batch", "campaign", op, b, e);
            traced.push_back(static_cast<double>(e - b) / 1000.0);
            ++r.attempted;
            bool same = pairs.size() == ref.pairs.size();
            for (std::size_t i = 0; same && i < pairs.size(); ++i)
                same = pair_text(pairs[i]) == pair_text(ref.pairs[i]);
            if (!same) {
                ++r.failed;
                r.fail("traced decomposition of batch " + std::to_string(op) +
                       " differs from run_campaign");
            }
            ++op;
        } while (Clock::now() < end && r.correct);
        r.layer["hub.ops"] = static_cast<double>(op);
        r.layer["campaign.pairs"] = static_cast<double>(op * kPairs);
        r.layer["untraced.p50_us"] = r.metrics["latency_p50_us"];
        r.layer["traced.p50_us"] = percentile(traced, 0.5);

        for (int i = 0; i < kPairs; ++i) {
            comdes::SystemBuilder sys("generated");
            const std::uint32_t seed = cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            in_span("campaign.generate", "campaign", op,
                    [&] { (void)campaign::generate_system(sys, cfg.gen, seed); });
        }

        // The pump path over both twins of every pair the batch runs.
        const std::vector<codegen::FaultKind> kinds = codegen::all_fault_kinds();
        for (int i = 0; i < kPairs; ++i) {
            const std::uint32_t seed = cfg.seed * 100003u + static_cast<std::uint32_t>(i);
            const codegen::FaultKind kind = kinds[static_cast<std::size_t>(i) % kinds.size()];
            if (campaign::make_generated_scenario(cfg.gen, seed, kind).scenario == nullptr)
                continue; // skipped pairs never run
            for (const std::optional<codegen::FaultKind> fault :
                 {std::optional<codegen::FaultKind>(), std::optional<codegen::FaultKind>(kind)})
                pump_path_layers("campaign", [&] {
                    return campaign::make_generated_scenario(cfg.gen, seed, fault).scenario;
                }, cfg.run_for, op, r);
        }
        r.layer["link.cmds_per_op"] = r.layer["link.cmds"];
        tr.stop();
        std::ofstream out(opt.trace_out, std::ios::binary);
        tr.write_chrome_json(out);
        r.layer["trace.dropped"] = static_cast<double>(tr.dropped());
    }
    return r;
}

} // namespace perfbench
