// Tests for the observability layer (src/obs/): histogram bucket math and
// percentile extraction, registry find-or-create semantics and concurrent
// updates (the TSan target), the two render surfaces (`metrics [prefix]`
// text dump, Prometheus exposition incl. a live GET /metrics scrape over
// loopback), tracer Chrome-JSON well-formedness from a real sharded pump,
// instrumentation deltas on the dispatch/pump/replay paths, and the
// zero-drift contract: golden transcripts stay byte-identical with metrics
// and tracing fully enabled.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "hub/controller.hpp"
#include "loopback.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/scenarios.hpp"
#include "proto/script.hpp"

namespace gh = gmdf::hub;
namespace gn = gmdf::net;
namespace go = gmdf::obs;
namespace gp = gmdf::proto;

namespace {

// ---- histogram math ---------------------------------------------------------

TEST(Histogram, BucketIndexAndBounds) {
    EXPECT_EQ(go::Histogram::bucket_index(0), 0);
    EXPECT_EQ(go::Histogram::bucket_index(1), 1);
    EXPECT_EQ(go::Histogram::bucket_index(2), 2);
    EXPECT_EQ(go::Histogram::bucket_index(3), 2);
    EXPECT_EQ(go::Histogram::bucket_index(4), 3);
    EXPECT_EQ(go::Histogram::bucket_index(1023), 10);
    EXPECT_EQ(go::Histogram::bucket_index(1024), 11);
    EXPECT_EQ(go::Histogram::bucket_index(~std::uint64_t{0}),
              go::Histogram::kBuckets - 1);

    EXPECT_EQ(go::Histogram::bucket_upper(0), 0u);
    EXPECT_EQ(go::Histogram::bucket_upper(1), 1u);
    EXPECT_EQ(go::Histogram::bucket_upper(2), 3u);
    EXPECT_EQ(go::Histogram::bucket_upper(10), 1023u);
    EXPECT_EQ(go::Histogram::bucket_upper(go::Histogram::kBuckets - 1),
              ~std::uint64_t{0});

    // Every value lands in the bucket whose bounds contain it.
    for (std::uint64_t v : {0ull, 1ull, 2ull, 7ull, 8ull, 100ull, 4095ull, 4096ull}) {
        const int i = go::Histogram::bucket_index(v);
        EXPECT_LE(v, go::Histogram::bucket_upper(i)) << v;
        if (i > 0) { EXPECT_GT(v, go::Histogram::bucket_upper(i - 1)) << v; }
    }
}

TEST(Histogram, PercentilesAndMean) {
    go::Histogram h;
    const go::Histogram::Snapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.percentile(50), 0.0);
    EXPECT_EQ(empty.mean(), 0.0);

    // 100 samples of 100 ns: every percentile interpolates inside the
    // [64, 127] bucket, the mean is exact.
    for (int i = 0; i < 100; ++i) h.record(100);
    const go::Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 100u);
    EXPECT_EQ(snap.sum, 10'000u);
    EXPECT_EQ(snap.mean(), 100.0);
    for (double p : {1.0, 50.0, 99.0}) {
        EXPECT_GE(snap.percentile(p), 64.0) << p;
        EXPECT_LE(snap.percentile(p), 127.0) << p;
    }
    // Rank ordering holds across a bimodal distribution.
    go::Histogram h2;
    for (int i = 0; i < 90; ++i) h2.record(10);
    for (int i = 0; i < 10; ++i) h2.record(100'000);
    const auto s2 = h2.snapshot();
    EXPECT_LT(s2.percentile(50), 16.0);
    EXPECT_GT(s2.percentile(99), 65'000.0);
    EXPECT_LE(s2.percentile(0), s2.percentile(50));
    EXPECT_LE(s2.percentile(50), s2.percentile(100));
}

// ---- registry ---------------------------------------------------------------

TEST(Registry, HandlesAreStableAndSharedByName) {
    go::Registry reg;
    go::Counter& a = reg.counter("x.requests", "verb", "run");
    go::Counter& b = reg.counter("x.requests", "verb", "run");
    EXPECT_EQ(&a, &b);
    go::Counter& other = reg.counter("x.requests", "verb", "query");
    EXPECT_NE(&a, &other);
    EXPECT_EQ(reg.metric_count(), 2u);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(other.value(), 0u);
}

TEST(Registry, KindMismatchThrows) {
    go::Registry reg;
    reg.counter("x.metric");
    EXPECT_THROW(reg.gauge("x.metric"), std::logic_error);
    EXPECT_THROW(reg.histogram("x.metric"), std::logic_error);
    reg.histogram("x.latency");
    EXPECT_THROW(reg.counter("x.latency"), std::logic_error);
}

TEST(Registry, DisabledMetricsAreNoOps) {
    go::Registry reg;
    go::Counter& c = reg.counter("x.gated");
    go::Histogram& h = reg.histogram("x.gated_ns");
    go::set_metrics_enabled(false);
    c.add(5);
    h.record(123);
    go::set_metrics_enabled(true);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.snapshot().count, 0u);
    c.add(5);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Registry, TextDumpFormatAndPrefixFilter) {
    go::Registry reg;
    reg.counter("b.count").add(7);
    reg.gauge("a.level").set(-3);
    go::Histogram& h = reg.histogram("c.lat_ns", "verb", "run");
    for (int i = 0; i < 4; ++i) h.record(100);

    const std::vector<std::string> all = reg.text_dump();
    ASSERT_EQ(all.size(), 3u); // sorted by (name, label)
    EXPECT_EQ(all[0], "a.level -3");
    EXPECT_EQ(all[1], "b.count 7");
    EXPECT_EQ(all[2].substr(0, 22), "c.lat_ns{verb=run} cou");
    EXPECT_NE(all[2].find("count=4"), std::string::npos);
    EXPECT_NE(all[2].find("mean=100"), std::string::npos);

    const std::vector<std::string> filtered = reg.text_dump("b.");
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0], "b.count 7");
    EXPECT_TRUE(reg.text_dump("nope.").empty());
}

TEST(Registry, PrometheusExposition) {
    go::Registry reg;
    reg.counter("req.total", "verb", "run").add(2);
    reg.counter("req.total", "verb", "query").add(1);
    reg.gauge("live").set(4);
    go::Histogram& h = reg.histogram("lat.ns");
    h.record(0);
    h.record(1);
    h.record(3);

    const std::string text = reg.prometheus_text();
    // One TYPE line per family even with two labeled series.
    EXPECT_EQ(text,
              "# TYPE gmdf_lat_ns histogram\n"
              "gmdf_lat_ns_bucket{le=\"0\"} 1\n"
              "gmdf_lat_ns_bucket{le=\"1\"} 2\n"
              "gmdf_lat_ns_bucket{le=\"3\"} 3\n"
              "gmdf_lat_ns_bucket{le=\"+Inf\"} 3\n"
              "gmdf_lat_ns_sum 4\n"
              "gmdf_lat_ns_count 3\n"
              "# TYPE gmdf_live gauge\n"
              "gmdf_live 4\n"
              "# TYPE gmdf_req_total counter\n"
              "gmdf_req_total{verb=\"query\"} 1\n"
              "gmdf_req_total{verb=\"run\"} 2\n");
}

// A scrape publishes totals kept elsewhere into a throwaway registry; the
// render merges it in sorted and typed, and the registry adopts nothing.
TEST(Registry, ScopedRegistryMergesIntoTheSortedRender) {
    go::Registry reg;
    reg.counter("a.count").add(1);
    reg.gauge("c.level").set(3);
    go::Registry scoped;
    go::set_metrics_enabled(false); // publishing a total is not gated
    scoped.counter("b.total").set(7);
    go::set_metrics_enabled(true);
    scoped.gauge("d.live").set(2);
    EXPECT_EQ(reg.text_dump({}, &scoped),
              (std::vector<std::string>{"a.count 1", "b.total 7", "c.level 3", "d.live 2"}));
    EXPECT_EQ(reg.prometheus_text(&scoped),
              "# TYPE gmdf_a_count counter\ngmdf_a_count 1\n"
              "# TYPE gmdf_b_total counter\ngmdf_b_total 7\n"
              "# TYPE gmdf_c_level gauge\ngmdf_c_level 3\n"
              "# TYPE gmdf_d_live gauge\ngmdf_d_live 2\n");
    EXPECT_EQ(reg.metric_count(), 2u);
}

// The TSan target: concurrent find-or-create against the sharded map plus
// lock-free handle updates, with scrapes racing the writers.
TEST(Registry, ConcurrentRegistrationAndUpdates) {
    go::Registry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&reg, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // All threads fight over the same few names.
                reg.counter("race.count", "slot", std::to_string(i % 4)).add();
                reg.histogram("race.lat", "slot", std::to_string(i % 4))
                    .record(static_cast<std::uint64_t>(i));
                if (i % 512 == 0) (void)reg.text_dump();
                (void)t;
            }
        });
    for (auto& th : threads) th.join();

    std::uint64_t total = 0;
    for (int s = 0; s < 4; ++s)
        total += reg.counter("race.count", "slot", std::to_string(s)).value();
    EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
    std::uint64_t samples = 0;
    for (int s = 0; s < 4; ++s)
        samples += reg.histogram("race.lat", "slot", std::to_string(s)).snapshot().count;
    EXPECT_EQ(samples, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- instrumentation deltas -------------------------------------------------

TEST(Instrumentation, DispatchCountsAndTimesPerVerb) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    go::Histogram& latency = go::registry().histogram("proto.request_ns", "verb", "info");
    const std::uint64_t samples_before = latency.snapshot().count;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(scenario->controller().execute_line("info").ok());
    EXPECT_EQ(latency.snapshot().count, samples_before + 3);
}

TEST(Instrumentation, PumpSlicesFeedTheHistogram) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "b1"), nullptr);
    go::Histogram& slices = go::registry().histogram("hub.pump.slice_ns");
    const std::uint64_t before = slices.snapshot().count;
    ASSERT_TRUE(hub.execute_line("run 100").ok());
    EXPECT_GT(slices.snapshot().count, before);
}

TEST(Instrumentation, ReplayCaptureAndRestoreAreTimed) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    go::Histogram& capture = go::registry().histogram("replay.capture_ns");
    go::Histogram& restore = go::registry().histogram("replay.restore_ns");
    const std::uint64_t cap_before = capture.snapshot().count;
    const std::uint64_t res_before = restore.snapshot().count;
    auto& ctl = scenario->controller();
    ASSERT_TRUE(ctl.execute_line("checkpoint auto 100").ok());
    ASSERT_TRUE(ctl.execute_line("run 500").ok());
    ASSERT_TRUE(ctl.execute_line("rewind 250").ok());
    EXPECT_GT(capture.snapshot().count, cap_before);
    EXPECT_GT(restore.snapshot().count, res_before);
}

// ---- the metrics verb -------------------------------------------------------

TEST(MetricsVerb, DumpsSortedAndFiltersByPrefix) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "b1"), nullptr);

    auto resp = hub.execute_line("metrics");
    ASSERT_TRUE(resp.ok());
    ASSERT_FALSE(resp.body.empty());
    // Sorted by (name, label value) — note the sort key is the pair, not
    // the rendered line ("{verb=step}" vs "{verb=step-back}" would flip).
    auto sort_key = [](const std::string& line) {
        const std::size_t brace = line.find('{');
        const std::size_t space = line.find(' ');
        if (brace == std::string::npos || brace > space)
            return std::make_pair(line.substr(0, space), std::string());
        const std::size_t eq = line.find('=', brace);
        const std::size_t close = line.find('}', brace);
        return std::make_pair(line.substr(0, brace),
                              line.substr(eq + 1, close - eq - 1));
    };
    for (std::size_t i = 1; i < resp.body.size(); ++i)
        EXPECT_LE(sort_key(resp.body[i - 1]), sort_key(resp.body[i]))
            << resp.body[i - 1] << " | " << resp.body[i];

    auto hub_only = hub.execute_line("metrics hub.");
    ASSERT_TRUE(hub_only.ok());
    ASSERT_FALSE(hub_only.body.empty());
    for (const auto& line : hub_only.body)
        EXPECT_EQ(line.substr(0, 4), "hub.") << line;

    auto none = hub.execute_line("metrics zzz.nothing");
    ASSERT_TRUE(none.ok());
    ASSERT_EQ(none.body.size(), 1u);
    EXPECT_EQ(none.body[0], "(no metrics match 'zzz.nothing')");

    auto bad = hub.execute_line("metrics a b");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code, gp::ErrorCode::BadArgument);
}

// Two hubs in one process: each scrape shows only the scraped hub's own
// totals, and a destroyed hub leaves nothing behind in the other's.
TEST(MetricsVerb, EachHubScrapesOnlyItsOwnTotals) {
    gh::HubController a;
    ASSERT_NE(a.open("blinker", "a1"), nullptr);
    {
        gh::HubController b;
        b.scheduler().set_threads(4);
        for (int i = 0; i < 4; ++i)
            ASSERT_NE(b.open("blinker", "b" + std::to_string(i)), nullptr);
        ASSERT_TRUE(b.execute_line("run 100").ok());
        EXPECT_EQ(a.execute_line("metrics hub.sessions.live").body,
                  std::vector<std::string>{"hub.sessions.live 1"});
        EXPECT_EQ(b.execute_line("metrics hub.sessions.live").body,
                  std::vector<std::string>{"hub.sessions.live 4"});
    }
    EXPECT_EQ(a.execute_line("metrics hub.shard.slices").body,
              std::vector<std::string>{"hub.shard.slices{shard=0} 0"});
}

// Pump totals have one home each, the per-shard families: the scrape
// carries no hub-wide sums of them, and the shard rows add up to the
// total `session stats` reports.
TEST(MetricsVerb, PumpTotalsLiveOnlyInTheShardFamilies) {
    gh::HubController hub;
    hub.scheduler().set_threads(4);
    for (int i = 0; i < 3; ++i)
        ASSERT_NE(hub.open("blinker", "b" + std::to_string(i)), nullptr);
    ASSERT_TRUE(hub.execute_line("run 100").ok());

    auto dump = hub.execute_line("metrics hub.");
    ASSERT_TRUE(dump.ok());
    std::uint64_t shard_slices = 0;
    for (const std::string& line : dump.body) {
        for (const char* gone :
             {"hub.pump.slices ", "hub.pump.steals ", "hub.watchdog.overruns "})
            EXPECT_FALSE(line.starts_with(gone)) << line;
        if (line.starts_with("hub.shard.slices{"))
            shard_slices += std::stoull(line.substr(line.rfind(' ') + 1));
    }
    EXPECT_NE(std::find(dump.body.begin(), dump.body.end(), "hub.watchdog.runaways 0"),
              dump.body.end());

    auto stats = hub.execute_line("session stats");
    ASSERT_TRUE(stats.ok());
    std::uint64_t total = 0;
    for (const std::string& line : stats.body)
        if (line.starts_with("scheduler-slices ")) total = std::stoull(line.substr(17));
    EXPECT_GT(total, 0u);
    EXPECT_EQ(shard_slices, total);
}

// ---- GET /metrics over a live loopback server -------------------------------

/// One-shot HTTP exchange: send `request`, read to close.
std::string raw_http(std::uint16_t port, std::string_view request) {
    int fd = gmdf::test::raw_dial(port);
    gmdf::test::raw_send(fd, request);
    std::string out = gmdf::test::raw_read(fd);
    ::close(fd);
    return out;
}

TEST(Scrape, GetMetricsServesPrometheusText) {
    gh::HubController hub;
    ASSERT_NE(hub.open("blinker", "blinker"), nullptr);
    gn::Server server(hub, {});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    std::atomic<bool> stop{false};
    std::thread loop([&] { server.run(stop); });

    const std::string reply =
        raw_http(server.port(), "GET /metrics HTTP/1.0\r\n\r\n");
    EXPECT_EQ(reply.substr(0, 15), "HTTP/1.0 200 OK");
    EXPECT_NE(reply.find("Content-Type: text/plain; version=0.0.4"),
              std::string::npos);
    const std::size_t body_at = reply.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = reply.substr(body_at + 4);

    // Content-Length matches the body exactly (one-shot close framing).
    const std::size_t len_at = reply.find("Content-Length: ");
    ASSERT_NE(len_at, std::string::npos);
    EXPECT_EQ(std::stoul(reply.substr(len_at + 16)), body.size());

    // Every family in the committed exposition catalog is present.
    std::ifstream golden(std::string(GMDF_SOURCE_DIR) +
                         "/tests/golden/metrics_exposition.txt");
    ASSERT_TRUE(golden) << "missing tests/golden/metrics_exposition.txt";
    std::string type_line;
    while (std::getline(golden, type_line))
        EXPECT_NE(body.find(type_line + "\n"), std::string::npos) << type_line;

    // The scrape counted itself.
    const std::string not_found =
        raw_http(server.port(), "GET /nope HTTP/1.0\r\n\r\n");
    EXPECT_EQ(not_found.substr(0, 22), "HTTP/1.0 404 Not Found");

    stop.store(true);
    loop.join();
    EXPECT_GE(server.stats().accepted, 2u);
}

// ---- tracer -----------------------------------------------------------------

/// Minimal structural JSON check: balanced containers outside strings,
/// no trailing garbage. Enough to catch escaping/comma bugs without a
/// JSON library.
bool json_is_well_formed(const std::string& text) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped) escaped = false;
            else if (c == '\\') escaped = true;
            else if (c == '"') in_string = false;
            continue;
        }
        switch (c) {
            case '"': in_string = true; break;
            case '{': case '[': ++depth; break;
            case '}': case ']':
                if (--depth < 0) return false;
                break;
            default: break;
        }
    }
    return depth == 0 && !in_string;
}

TEST(Tracer, ShardedPumpExportsWellFormedChromeTrace) {
    gh::HubController hub;
    hub.scheduler().set_threads(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_NE(hub.open("blinker", "b" + std::to_string(i)), nullptr);

    go::tracer().set_capacity(1 << 14);
    go::tracer().start();
    ASSERT_TRUE(
        hub.execute_line("run 200").ok());
    go::tracer().stop();
    EXPECT_GT(go::tracer().event_count(), 0u);

    std::ostringstream out;
    go::tracer().write_chrome_json(out);
    const std::string json = out.str();
    EXPECT_TRUE(json_is_well_formed(json)) << json.substr(0, 400);
    EXPECT_EQ(json.substr(0, 16), "{\"traceEvents\":[");
    EXPECT_NE(json.find("\"name\":\"pump-slice\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Shard thread-name metadata rows label the Perfetto tracks.
    EXPECT_NE(json.find("\"shard-0\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    // Span args (session names) made it through escaping.
    EXPECT_NE(json.find("\"session\""), std::string::npos);
}

TEST(Tracer, StartClearsAndStopFreezes) {
    go::tracer().set_capacity(1 << 10);
    go::tracer().start();
    { go::Span span("test", "one"); }
    go::tracer().stop();
    const std::size_t frozen = go::tracer().event_count();
    EXPECT_GE(frozen, 1u);
    { go::Span span("test", "ignored-while-stopped"); }
    EXPECT_EQ(go::tracer().event_count(), frozen);
    go::tracer().start();
    EXPECT_EQ(go::tracer().event_count(), 0u); // start() cleared the capture
    go::tracer().stop();
}

TEST(Tracer, DropsOldestWhenFull) {
    go::tracer().set_capacity(8); // 1 slot per ring
    go::tracer().start();
    for (int i = 0; i < 50; ++i) {
        go::Span span("test", "spin-", std::to_string(i));
    }
    go::tracer().stop();
    EXPECT_LE(go::tracer().event_count(), 8u);
    EXPECT_GT(go::tracer().dropped(), 0u);
    std::ostringstream out;
    go::tracer().write_chrome_json(out);
    EXPECT_TRUE(json_is_well_formed(out.str()));
    go::tracer().set_capacity(1 << 18); // restore the default for later tests
}

// ---- the profile verbs ------------------------------------------------------

TEST(TraceProfileVerb, StartStopDumpRoundTrip) {
    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    auto& ctl = scenario->controller();

    EXPECT_FALSE(ctl.execute_line("trace profile stop").ok()); // not running
    ASSERT_TRUE(ctl.execute_line("trace profile start").ok());
    ASSERT_TRUE(ctl.execute_line("run 100").ok());
    auto stop = ctl.execute_line("trace profile stop");
    ASSERT_TRUE(stop.ok());
    ASSERT_FALSE(stop.body.empty());

    const std::string path = ::testing::TempDir() + "gmdf_obs_profile.json";
    auto dump = ctl.execute_line("trace profile dump " + path);
    ASSERT_TRUE(dump.ok());
    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_TRUE(json_is_well_formed(text.str()));
    EXPECT_NE(text.str().find("dispatch:run"), std::string::npos);
    std::remove(path.c_str());
}

// ---- zero transcript drift --------------------------------------------------

// The hard contract of this layer: with metrics AND tracing fully enabled,
// the golden quickstart transcript is still byte-identical. Instrumentation
// must never leak wall-clock values into verb output.
TEST(Golden, QuickstartTranscriptUnchangedWithObsFullyEnabled) {
    go::set_metrics_enabled(true);
    go::tracer().set_capacity(1 << 16);
    go::tracer().start();

    auto scenario = gp::make_scenario("blinker");
    ASSERT_NE(scenario, nullptr);
    std::ifstream script(std::string(GMDF_SOURCE_DIR) + "/examples/quickstart.gds");
    ASSERT_TRUE(script) << "missing examples/quickstart.gds";
    std::ostringstream out;
    auto result = gp::run_script(scenario->controller(), script, out);
    go::tracer().stop();
    EXPECT_EQ(result.errors, 0u);
    EXPECT_TRUE(result.quit);

    std::ifstream golden_file(std::string(GMDF_SOURCE_DIR) +
                              "/tests/golden/quickstart_transcript.txt");
    ASSERT_TRUE(golden_file) << "missing tests/golden/quickstart_transcript.txt";
    std::ostringstream golden;
    golden << golden_file.rdbuf();
    EXPECT_EQ(out.str(), golden.str());
    EXPECT_GT(go::tracer().event_count(), 0u); // the capture really ran
}

} // namespace
