// gmdf_perfbench — the repository benchmark's binary.
//
//   gmdf_perfbench --workload query_tcp|debug_tcp|campaign --seed N
//                  --seconds S --trace 0|1
//
// Prints a host block, the run's sample counts, the p50 of its first and
// last quarters, and as the last line one JSON object with the raw
// results (end-to-end metrics, per-op counts, and for a traced run the
// layer counts the span file is divided by, and that span file's path:
// trace-<workload>-<seed>.json next to the binary). perfbench/run.py
// builds this binary and turns that line into the benchmark's report.
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

std::string json_escape(std::string_view s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

template <class Map> std::string json_object(const Map& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1) out += ",";
        out += "\"" + json_escape(k) + "\":" + json_number(static_cast<double>(v));
    }
    return out + "}";
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "gmdf_perfbench: %s\nusage: gmdf_perfbench --workload "
                 "query_tcp|debug_tcp|campaign --seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        if (a == "--workload") opt.workload = v;
        else if (a == "--seed") opt.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") opt.seconds = std::strtod(v, nullptr);
        else if (a == "--trace") opt.trace = std::strcmp(v, "0") != 0;
        else usage(("unknown argument " + a).c_str());
    }
    if (opt.seconds <= 0) usage("--seconds must be positive");
    if (opt.trace)
        opt.trace_out = (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
                         ("trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json"))
                            .string();

    RunResult r;
    if (opt.workload == "query_tcp") r = run_query_tcp(opt);
    else if (opt.workload == "debug_tcp") r = run_debug_tcp(opt);
    else if (opt.workload == "campaign") r = run_campaign_workload(opt);
    else usage("unknown workload");

    utsname un{};
    uname(&un);
    std::printf("host: cpus=%u compiler=\"g++ %s\" build=%s kernel=%s %s\n",
                std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_BUILD_TYPE,
                un.sysname, un.release);
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d ops=%llu failed=%llu "
                "setup_repeats=%llu\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.setup_repeats));
    if (!r.first_quarter_us.empty())
        std::printf("quarters: first p50 %.3f us (%zu samples), last p50 %.3f us (%zu samples)\n",
                    percentile(r.first_quarter_us, 0.5), r.first_quarter_us.size(),
                    percentile(r.last_quarter_us, 0.5), r.last_quarter_us.size());
    std::printf("per-op counts: %s\n", json_object(r.per_op).c_str());
    for (const std::string& e : r.errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s,"
                "\"per_op\":%s,\"layer\":%s,\"trace\":\"%s\"}\n",
                r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), json_object(r.metrics).c_str(),
                json_object(r.per_op).c_str(), json_object(r.layer).c_str(),
                json_escape(opt.trace_out).c_str());
    return r.correct ? 0 : 1;
}
