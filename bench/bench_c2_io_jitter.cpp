// C2 — paper §III claim: COMDES applies Distributed Timed Multitasking,
// "resulting in the elimination of I/O jitter at both actor task and
// transaction levels."
// Table: measured output jitter (max - min output-latch offset from the
// release instant) for deadline-latched vs. immediate outputs, swept over
// interfering CPU load.
#include <iomanip>
#include <iostream>

#include "codegen/loader.hpp"
#include "comdes/build.hpp"

using namespace gmdf;

namespace {

struct JitterResult {
    double jitter_us = 0.0;
    double mean_offset_us = 0.0;
    std::uint64_t misses = 0;
};

// A fast interfering task (priority 0) steals variable CPU time from the
// measured control task (priority 5).
class NoiseBody final : public rt::TaskBody {
public:
    explicit NoiseBody(std::uint64_t max_cycles) : max_cycles_(max_cycles) {}

    std::uint64_t execute(rt::TaskContext&) override {
        // Deterministic varying load: triangle pattern.
        phase_ = (phase_ + 1) % 16;
        return max_cycles_ * static_cast<std::uint64_t>(phase_ < 8 ? phase_ : 16 - phase_) /
               8;
    }

private:
    std::uint64_t max_cycles_;
    int phase_ = 0;
};

JitterResult run(rt::OutputMode mode, std::uint64_t noise_cycles) {
    comdes::SystemBuilder sys("c2");
    auto in_sig = sys.add_signal("u", "real_", 1.0);
    auto out_sig = sys.add_signal("y");
    auto a = sys.add_actor("ctl", 10'000, /*deadline_us=*/8'000);
    auto pid = a.add_basic("pid", "pid_", {1.0, 0.5, 0.0, -10.0, 10.0});
    auto lp = a.add_basic("lp", "lowpass_", {0.05});
    a.bind_input(in_sig, pid, "sp");
    a.bind_input(out_sig, pid, "pv");
    a.connect(pid, "out", lp, "in");
    a.bind_output(lp, "out", out_sig);

    rt::Target target(mode);
    (void)codegen::load_system(target, sys.model(), codegen::InstrumentOptions::none());
    // Priority attribute defaults to 0 == highest; push measured task low.
    rt::TaskConfig noise_cfg;
    noise_cfg.name = "noise";
    noise_cfg.period = 3'700 * rt::kUs; // co-prime with 10 ms: phases drift
    noise_cfg.priority = -1;
    target.node(0).add_task(std::move(noise_cfg), std::make_unique<NoiseBody>(noise_cycles));

    target.start();
    target.run_for(5 * rt::kSec);

    const auto& stats = target.node(0).task_stats("ctl");
    JitterResult r;
    const auto& offsets = stats.output_offsets;
    if (offsets.count > 0) {
        r.jitter_us = static_cast<double>(offsets.max - offsets.min) / 1000.0;
        r.mean_offset_us = static_cast<double>(offsets.sum) /
                           static_cast<double>(offsets.count) / 1000.0;
    }
    r.misses = stats.deadline_misses;
    return r;
}

} // namespace

int main() {
    std::cout << "C2: output jitter, deadline-latched (timed multitasking) vs immediate\n";
    std::cout << "control task: 10 ms period / 8 ms deadline; interfering load task\n\n";
    std::cout << std::left << std::setw(18) << "noise (cycles)" << std::setw(12) << "mode"
              << std::setw(16) << "jitter (us)" << std::setw(18) << "mean offset (us)"
              << std::setw(10) << "misses" << "\n";
    for (std::uint64_t noise : {0ull, 48'000ull, 144'000ull, 288'000ull}) {
        for (auto mode : {rt::OutputMode::LatchAtDeadline, rt::OutputMode::Immediate}) {
            auto r = run(mode, noise);
            std::cout << std::setw(18) << noise << std::setw(12)
                      << (mode == rt::OutputMode::LatchAtDeadline ? "latched" : "immediate")
                      << std::setw(16) << std::fixed << std::setprecision(1) << r.jitter_us
                      << std::setw(18) << r.mean_offset_us << std::setw(10) << r.misses
                      << "\n";
            std::cout.unsetf(std::ios::fixed);
        }
    }
    std::cout << "\nExpected shape (paper claim): latched jitter is exactly 0 at every\n"
                 "load (outputs appear precisely at the deadline); immediate-output\n"
                 "jitter grows with load variation.\n";
    return 0;
}
