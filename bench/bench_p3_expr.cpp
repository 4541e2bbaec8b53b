// P3 — tree-walk interpreter vs. compiled bytecode VM on the three hot
// expression workloads the debugger runs per scan:
//
//   expression_fb_scan    an expression_ FB kernel step (pin-name lookup
//                         + meta::Value boxing vs. slot-indexed doubles)
//   sm_guard_scan         a state machine's guard sweep per scan step
//   breakpoint_predicate  a SignalPredicate check per SIGNAL_UPDATE
//                         (name->id->value map chain vs. dense slots)
//
// Each workload times the legacy evaluation shape faithfully (the exact
// lookup closures the kernels used before compilation) against
// CompiledExpr::run over the same inputs, checks both produce identical
// results, and reports ns/eval (median, min and max over the rounds)
// plus the speedup of the medians.
//
// Output: human-readable summary on stdout and a machine-readable JSON
// report (default BENCH_p3_expr.json, or argv[1]) for CI trend tracking.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "expr/compile.hpp"
#include "expr/eval.hpp"
#include "expr/parser.hpp"

using namespace gmdf;
using benchjson::Spread;
using benchjson::time_ns;

namespace {

struct Result {
    std::string name;
    Spread tree_ns;
    Spread compiled_ns;
    [[nodiscard]] double speedup() const { return tree_ns.median / compiled_ns.median; }
};

/// The pre-compilation ExprKernel shape: tree-walk with a linear
/// pin-name scan per VarRef visit.
double tree_walk_over_pins(const expr::Expr& ast, const std::vector<std::string>& pins,
                           const double* in) {
    auto lookup = [&](std::string_view name) -> meta::Value {
        for (std::size_t i = 0; i < pins.size(); ++i)
            if (pins[i] == name) return meta::Value(in[i]);
        return {};
    };
    return expr::eval(ast, lookup).as_number();
}

Result bench_expression_fb() {
    // A realistic expression_ FB: PI-style control law over five pins.
    const std::string src = "clamp(kp * (sp - pv) + ki * acc, lo, hi)";
    auto ast = expr::parse(src);
    auto pins = expr::free_variables(*ast); // sorted: acc, hi, ki, kp, lo, pv, sp
    auto compiled = expr::compile(*ast, pins);

    std::vector<double> in(pins.size());
    auto fill = [&](int i) {
        for (std::size_t p = 0; p < in.size(); ++p)
            in[p] = static_cast<double>((i + static_cast<int>(p) * 7) % 23) * 0.35 - 3.0;
    };

    // Sanity: identical results on a sweep before timing.
    for (int i = 0; i < 64; ++i) {
        fill(i);
        double want = tree_walk_over_pins(*ast, pins, in.data());
        double got = 0.0;
        if (compiled.run(in, got) != expr::VmStatus::Ok || got != want) {
            std::fprintf(stderr, "expression_fb mismatch at %d\n", i);
            std::exit(1);
        }
    }

    Result r{"expression_fb_scan", {}, {}};
    r.tree_ns = time_ns(200'000, [&](int i) {
        fill(i);
        return tree_walk_over_pins(*ast, pins, in.data());
    });
    r.compiled_ns = time_ns(200'000, [&](int i) {
        fill(i);
        double y = 0.0;
        (void)compiled.run(in, y);
        return y;
    });
    return r;
}

Result bench_sm_guards() {
    // A four-transition machine's guard sweep over its input pins.
    const std::vector<std::string> pins{"fault", "level", "rate", "run"};
    const std::vector<std::string> guards{
        "run && level > 80 && !fault",
        "level < 20 || fault",
        "rate > 0.5 && level >= 40",
        "!run || abs(rate) < 0.01",
    };
    std::vector<expr::ExprPtr> asts;
    std::vector<expr::CompiledExpr> compiled;
    for (const auto& g : guards) {
        asts.push_back(expr::parse(g));
        compiled.push_back(expr::compile(*asts.back(), pins));
    }

    double in[4] = {0, 0, 0, 0};
    auto fill = [&](int i) {
        in[0] = (i % 11) == 0 ? 1.0 : 0.0;
        in[1] = static_cast<double>(i % 100);
        in[2] = static_cast<double>(i % 7) * 0.2 - 0.6;
        in[3] = (i % 3) != 0 ? 1.0 : 0.0;
    };
    auto lookup_env = [&](std::string_view name) -> meta::Value {
        for (std::size_t p = 0; p < pins.size(); ++p)
            if (pins[p] == name) return meta::Value(in[p]);
        return {};
    };

    for (int i = 0; i < 64; ++i) {
        fill(i);
        for (std::size_t g = 0; g < guards.size(); ++g) {
            bool want = expr::eval_bool(*asts[g], lookup_env);
            double got = 0.0;
            if (compiled[g].run(std::span<const double>(in), got) != expr::VmStatus::Ok ||
                (got != 0.0) != want) {
                std::fprintf(stderr, "sm_guard mismatch at %d/%zu\n", i, g);
                std::exit(1);
            }
        }
    }

    Result r{"sm_guard_scan", {}, {}};
    r.tree_ns = time_ns(100'000, [&](int i) {
        fill(i);
        double hits = 0.0;
        for (const auto& ast : asts) hits += expr::eval_bool(*ast, lookup_env) ? 1.0 : 0.0;
        return hits;
    });
    r.compiled_ns = time_ns(100'000, [&](int i) {
        fill(i);
        double hits = 0.0;
        for (const auto& ce : compiled) {
            double y = 0.0;
            (void)ce.run(std::span<const double>(in), y);
            hits += y != 0.0 ? 1.0 : 0.0;
        }
        return hits;
    });
    return r;
}

Result bench_breakpoint_predicate() {
    // The engine's pre-compilation shape: predicate over named signals,
    // each VarRef costing a name->id map walk plus an id->value map walk,
    // wrapped in a try/catch. 64 signals live in the model.
    const std::string src = "speed > 80 && brake == 0 && gear >= 3";
    auto ast = expr::parse(src);

    std::map<std::string, std::uint64_t> by_name;
    std::map<std::uint64_t, double> values;
    std::vector<double> slots(64, 0.0);
    std::vector<std::string> names;
    for (int i = 0; i < 64; ++i) {
        std::string name = i == 20 ? "speed" : i == 40 ? "brake" : i == 60 ? "gear"
                                             : "sig" + std::to_string(i);
        names.push_back(name);
        by_name[name] = 1000 + static_cast<std::uint64_t>(i);
        values[1000 + static_cast<std::uint64_t>(i)] = 0.0;
    }
    auto compiled = expr::compile(*ast, [&](std::string_view name) -> int {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == name) return static_cast<int>(i);
        return -1;
    });

    // Map references are stable: cache the cells so the per-iteration
    // signal update costs the same plain stores on both paths (the
    // update is engine ingest work, not predicate evaluation).
    double* v_speed = &values[1020];
    double* v_brake = &values[1040];
    double* v_gear = &values[1060];
    auto fill = [&](int i) {
        double speed = static_cast<double>(i % 160);
        double brake = (i % 5) == 0 ? 1.0 : 0.0;
        double gear = static_cast<double>(i % 6);
        *v_speed = speed; slots[20] = speed;
        *v_brake = brake; slots[40] = brake;
        *v_gear = gear;   slots[60] = gear;
    };
    auto legacy_eval = [&]() -> bool {
        try {
            return expr::eval_bool(*ast, [&](std::string_view name) -> meta::Value {
                auto sit = by_name.find(std::string(name));
                if (sit == by_name.end()) return {};
                auto vit = values.find(sit->second);
                return vit == values.end() ? meta::Value(0.0) : meta::Value(vit->second);
            });
        } catch (const std::exception&) {
            return false;
        }
    };

    for (int i = 0; i < 64; ++i) {
        fill(i);
        double got = 0.0;
        bool ok = compiled.run(slots, got) == expr::VmStatus::Ok;
        if (!ok || (got != 0.0) != legacy_eval()) {
            std::fprintf(stderr, "breakpoint mismatch at %d\n", i);
            std::exit(1);
        }
    }

    Result r{"breakpoint_predicate_sweep", {}, {}};
    r.tree_ns = time_ns(100'000, [&](int i) {
        fill(i);
        return legacy_eval() ? 1.0 : 0.0;
    });
    r.compiled_ns = time_ns(100'000, [&](int i) {
        fill(i);
        double y = 0.0;
        return compiled.run(slots, y) == expr::VmStatus::Ok && y != 0.0 ? 1.0 : 0.0;
    });
    return r;
}

} // namespace

int main(int argc, char** argv) {
    const char* out_path = argc > 1 ? argv[1] : "BENCH_p3_expr.json";

    std::vector<Result> results;
    results.push_back(bench_expression_fb());
    results.push_back(bench_sm_guards());
    results.push_back(bench_breakpoint_predicate());

    std::printf("%-28s %14s %14s %10s\n", "workload", "tree ns/eval", "vm ns/eval",
                "speedup");
    for (const auto& r : results)
        std::printf("%-28s %14.1f %14.1f %9.1fx\n", r.name.c_str(), r.tree_ns.median,
                    r.compiled_ns.median, r.speedup());

    benchjson::Writer w;
    benchjson::begin_report(w, "p3_expr");
    w.kv("unit", "ns_per_eval");
    w.key("workloads");
    w.begin_array();
    for (const Result& r : results) {
        w.begin_object(/*compact=*/true);
        w.kv("name", r.name);
        w.spread("tree_walk", r.tree_ns, 1);
        w.spread("compiled", r.compiled_ns, 1);
        w.kv("speedup", r.speedup(), 2);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(out_path)) return 1;
    std::printf("wrote %s\n", out_path);
    return 0;
}
