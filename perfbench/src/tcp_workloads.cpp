// query_tcp and debug_tcp: closed loops over loopback TCP against an
// in-process hub + net::Server, every response and every session's event
// stream checked byte for byte against an in-process twin hub that
// replays the same lines.
#include <fstream>
#include <map>
#include <random>
#include <span>

#include "hub/registry.hpp"
#include "hub/sharded.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "proto/message.hpp"
#include "tcp.hpp"

namespace perfbench {

namespace {

using EventsBySession = std::map<std::string, std::vector<std::string>>;

/// Fresh set-ups timed per run; setup_s is their median. The first one
/// serves; the others run in batches before each slice of the measured
/// phase, so the median spans the run and not only its first fraction of
/// a second (set-up time moves with the host's speed).
constexpr int kSetupBatches = 10;
constexpr int kSetupsPerBatch = 10;

/// "@name rest" -> {"name", "rest"}; unaddressed lines -> {"", line}.
std::pair<std::string_view, std::string_view> split_address(std::string_view line) {
    if (line.empty() || line.front() != '@') return {{}, line};
    const std::size_t space = line.find(' ');
    return {line.substr(1, space - 1), line.substr(space + 1)};
}

/// The hub.execute_us.<key> a request line is timed under.
std::string verb_key(std::string_view line) {
    std::string_view rest = split_address(line).second;
    const std::size_t sp = rest.find(' ');
    std::string key(rest.substr(0, sp));
    if ((key == "query" || key == "break" || key == "session") && sp != std::string_view::npos) {
        std::string_view sub = rest.substr(sp + 1);
        key += "_" + std::string(sub.substr(0, sub.find(' ')));
    }
    return key;
}

EventsBySession by_session(const std::vector<std::string>& events) {
    EventsBySession out;
    for (const std::string& ev : events) out[event_session(ev)].push_back(ev);
    return out;
}

struct TcpSpec {
    std::string workload;
    int connections = 1;
    int pump_threads = 1;
    std::vector<std::string> setup;               ///< on connection 0
    std::vector<std::string> attach;              ///< connection i>=1 runs attach[i-1]
    std::vector<std::vector<std::string>> lines;  ///< per connection, cycled
    std::size_t op_len = 1;                       ///< requests per op
    std::uint64_t traced_ops = 0;                 ///< cap on the traced phase
    int layer_reps = 1;                           ///< request-path replays
    int obs_reps = 1;
    std::vector<std::string> fleet;               ///< scenario names (pump layers)
    rt::SimTime fleet_run = 0;
    /// Poll the client sockets without sleeping. A lone connection then
    /// carries no client wake-up in its latency; with four connections
    /// in flight the client rarely sleeps, and spinning it measured less
    /// steady (it competes with the serving thread for a core).
    bool spin_client = false;
};

/// One expected exchange: response bytes, events per session, wire size.
struct Expected {
    std::string response;
    EventsBySession events;
    std::uint64_t wire_bytes = 0;
    bool operator==(const Expected&) const = default;
};

/// The in-process twin: same lines, same per-client contexts.
struct Twin {
    hub::HubController hub;
    std::vector<hub::RouteContext> ctx;
    std::vector<Expected> setup;  ///< connection 0's setup, then each attach
    EventsBySession setup_events; ///< every event the setup raised
    std::vector<std::vector<Expected>> expected; ///< per connection, per line
};

Expected twin_exec(Twin& t, std::size_t conn, std::string_view line) {
    Expected e;
    e.response = proto::format_response(t.hub.execute_line(line, t.ctx[conn]));
    std::vector<std::string> events = t.hub.drain_event_lines();
    e.wire_bytes = net::encode_frame(net::FrameType::Request, line).size() +
                   net::encode_frame(net::FrameType::Response, e.response).size() +
                   net::encode_frame(net::FrameType::Done, {}).size();
    for (const std::string& ev : events)
        e.wire_bytes += net::encode_frame(net::FrameType::Event, ev).size();
    e.events = by_session(events);
    return e;
}

std::unique_ptr<Twin> make_twin(const TcpSpec& spec, RunResult& r) {
    auto t = std::make_unique<Twin>();
    t->ctx.resize(static_cast<std::size_t>(spec.connections));
    for (const std::string& line : spec.setup) {
        t->setup.push_back(twin_exec(*t, 0, line));
        for (auto& [session, evs] : t->setup.back().events)
            for (const std::string& ev : evs) t->setup_events[session].push_back(ev);
    }
    for (std::size_t i = 1; i < t->ctx.size(); ++i)
        t->setup.push_back(twin_exec(*t, i, spec.attach[i - 1]));
    // Two passes: every op must leave the hub where it found it, or the
    // stream a connection sees could not repeat.
    t->expected.resize(t->ctx.size());
    for (int pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < t->ctx.size(); ++i)
            for (std::size_t k = 0; k < spec.lines[i].size(); ++k) {
                Expected e = twin_exec(*t, i, spec.lines[i][k]);
                if (pass == 0) {
                    if (e.response.rfind("ok", 0) != 0)
                        r.fail("twin: '" + spec.lines[i][k] + "' failed: " + e.response);
                    t->expected[i].push_back(std::move(e));
                } else if (!(e == t->expected[i][k])) {
                    r.fail("twin: '" + spec.lines[i][k] + "' differs on the second pass");
                }
            }
    return t;
}

struct Fixture {
    std::unique_ptr<ServerLoop> server;
    LoadGen gen;
    std::vector<std::size_t> cursor; ///< next line per connection
    std::uint64_t setup_wire_bytes = 0;
    ~Fixture() {
        if (server) server->stop();
    }
};

std::unique_ptr<Fixture> set_up(const TcpSpec& spec, const Twin& twin, RunResult& r) {
    auto fx = std::make_unique<Fixture>();
    fx->server = std::make_unique<ServerLoop>(spec.pump_threads, spec.workload);
    const std::uint64_t setup_requests = spec.setup.size() + spec.attach.size();
    fx->server->set_marks(setup_requests, spec.connections == 1 ? spec.op_len : 0);
    fx->server->set_spin(true);
    std::string err;
    if (!fx->server->start(&err)) {
        r.fail("server start: " + err);
        return nullptr;
    }
    LoadGen& gen = fx->gen;
    if (!gen.connect(fx->server->port(), spec.connections)) {
        r.fail("connect: " + gen.error());
        return nullptr;
    }
    std::vector<std::pair<std::size_t, std::string>> script;
    for (const std::string& line : spec.setup) script.emplace_back(0, line);
    for (std::size_t i = 1; i < gen.conns.size(); ++i) script.emplace_back(i, spec.attach[i - 1]);
    for (std::size_t k = 0; k < script.size(); ++k) {
        const auto& [conn, line] = script[k];
        if (!gen.roundtrip(conn, line)) {
            r.fail("setup '" + line + "': " + gen.error());
            return nullptr;
        }
        if (gen.conns[conn].response != twin.setup[k].response)
            r.fail("setup '" + line + "' answered differently than the twin");
    }
    // Connections attached before the setup ran; each must have seen
    // every setup event, in the twin's order per session.
    for (Conn& c : gen.conns) {
        if (by_session(c.events) != twin.setup_events)
            r.fail("setup events differ from the twin's");
        c.events.clear();
        fx->setup_wire_bytes += c.wire_bytes;
    }
    fx->cursor.assign(gen.conns.size(), 0);
    fx->server->set_spin(false);
    return fx;
}

struct Phase {
    explicit Phase(std::uint64_t seed) : lat_us(seed) {}
    LatencyLog lat_us;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t requests = 0;
    std::uint64_t expected_bytes = 0;
    double program_cpu_s = 0;
};

/// Closed loop: every connection keeps one request in flight until
/// `seconds` pass (or `max_ops` ops complete), then finishes its op.
bool closed_loop(Fixture& fx, const TcpSpec& spec, const Twin& twin, double seconds,
                 std::uint64_t max_ops, std::uint64_t& op_id, Phase& out, RunResult& r) {
    LoadGen& gen = fx.gen;
    const std::size_t n = gen.conns.size();
    obs::Tracer& tr = obs::tracer();
    std::vector<Clock::time_point> op_start(n);
    std::vector<std::uint64_t> op_start_ns(n, 0);
    std::vector<bool> op_bad(n, false);
    bool running = true;
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    const double cpu0 = process_cpu_s();
    const double gen0 = thread_cpu_s();

    const auto begin_op = [&](std::size_t i) {
        op_start[i] = Clock::now();
        if (tr.enabled()) op_start_ns[i] = tr.now_ns();
    };
    const auto on_done = [&](std::size_t i) {
        Conn& c = gen.conns[i];
        const std::size_t k = fx.cursor[i];
        const Expected& want = twin.expected[i][k];
        if (c.response != want.response || by_session(c.events) != want.events) {
            if (!op_bad[i])
                r.fail(spec.workload + ": '" + spec.lines[i][k] + "' on connection " +
                       std::to_string(i) + " differs from the twin");
            op_bad[i] = true;
        }
        c.events.clear();
        ++out.requests;
        out.expected_bytes += want.wire_bytes;
        fx.cursor[i] = (k + 1) % spec.lines[i].size();
        if (fx.cursor[i] % spec.op_len == 0) {
            out.lat_us.add(us_between(op_start[i], Clock::now()));
            if (tr.enabled())
                record_span("client.op", spec.workload, op_id, op_start_ns[i], tr.now_ns());
            ++op_id;
            ++out.ops;
            if (op_bad[i]) ++out.failed;
            op_bad[i] = false;
            if (!running || out.ops >= max_ops) {
                running = false;
                return;
            }
            begin_op(i);
        }
        gen.send(c, spec.lines[i][fx.cursor[i]]);
    };

    for (std::size_t i = 0; i < n; ++i) {
        begin_op(i);
        gen.send(gen.conns[i], spec.lines[i][fx.cursor[i]]);
    }
    const std::function<void(std::size_t)> done_fn = on_done;
    const auto any_waiting = [&] {
        for (const Conn& c : gen.conns)
            if (c.waiting) return true;
        return false;
    };
    while (any_waiting()) {
        if (!gen.step(spec.spin_client ? 0 : 1000, done_fn)) {
            r.fail(spec.workload + ": " + gen.error());
            ++out.failed;
            return false;
        }
        if (running && Clock::now() >= deadline) running = false;
    }
    out.program_cpu_s += (process_cpu_s() - cpu0) - (thread_cpu_s() - gen0);
    return true;
}

/// Checks the serving thread's samples: every op's program counts
/// identical, and totals matching what the clients saw.
void check_server_counts(const Fixture& fx, const TcpSpec& spec, std::uint64_t requests,
                         std::uint64_t expected_bytes, RunResult& r) {
    const auto& s = fx.server->samples();
    const ServerLoop::Sample& last = fx.server->final_sample();
    if (s.empty()) {
        r.fail("no server samples");
        return;
    }
    const auto delta = [](const ServerLoop::Sample& a, const ServerLoop::Sample& b) {
        return OpCounts{{"requests", b.requests - a.requests},
                        {"wire_bytes", b.wire_bytes - a.wire_bytes},
                        {"events", b.events - a.events},
                        {"pump_slices", b.slices - a.slices},
                        {"checkpoints", b.checkpoints - a.checkpoints},
                        {"restores", b.restores - a.restores},
                        {"uart_cmds", b.uart_cmds - a.uart_cmds}};
    };
    const OpCounts total = delta(s.front(), last);
    if (spec.connections == 1) {
        for (std::size_t k = 1; k < s.size(); ++k) check_stationary(r, delta(s[k - 1], s[k]), k - 1);
    } else {
        // Interleaved connections: ops are single read-only requests, so
        // the pump path must not have moved at all.
        r.per_op = {{"requests", 1}, {"events", 0}, {"pump_slices", 0},
                    {"checkpoints", 0}, {"restores", 0}, {"uart_cmds", 0}};
        for (const char* name : {"events", "pump_slices", "checkpoints", "restores", "uart_cmds"})
            if (total.at(name) != 0)
                r.fail(std::string("count drift: ") + name + " moved by " +
                       std::to_string(total.at(name)) + " on a read-only load");
    }
    std::uint64_t client_bytes = 0;
    for (const Conn& c : fx.gen.conns) client_bytes += c.wire_bytes;
    client_bytes -= fx.setup_wire_bytes;
    if (total.at("requests") != requests)
        r.fail("server served " + std::to_string(total.at("requests")) + " requests, clients sent " +
               std::to_string(requests));
    if (total.at("wire_bytes") != client_bytes || client_bytes != expected_bytes)
        r.fail("wire bytes: server " + std::to_string(total.at("wire_bytes")) + ", clients " +
               std::to_string(client_bytes) + ", expected " + std::to_string(expected_bytes));
    r.layer["net.bytes"] = static_cast<double>(total.at("wire_bytes"));
    r.layer["net.requests_total"] = static_cast<double>(requests);
    if (r.per_op.count("uart_cmds") != 0)
        r.layer["link.cmds_per_op"] = static_cast<double>(r.per_op.at("uart_cmds"));
}

/// Request-path layers replayed on the twin: hub dispatch per verb, the
/// proto codec, the frame codec, and the metrics layer's cost.
void request_path_layers(const TcpSpec& spec, Twin& twin, RunResult& r) {
    std::uint64_t op = 0;
    for (int rep = 0; rep < spec.layer_reps; ++rep)
        for (std::size_t i = 0; i < spec.lines.size(); ++i)
            for (const std::string& line : spec.lines[i]) {
                const proto::Response resp = in_span(
                    "hub.execute:" + verb_key(line), spec.workload, op,
                    [&] { return twin.hub.execute_line(line, twin.ctx[i]); });
                const std::vector<std::string> events = twin.hub.drain_event_lines();
                const std::string_view bare = split_address(line).second;
                const bool parsed = in_span("proto.parse", spec.workload, op,
                                            [&] { return proto::parse_request(bare).ok(); });
                const std::string text = in_span("proto.format", spec.workload, op,
                                                 [&] { return proto::format_response(resp); });
                const std::size_t frames = in_span("net.codec", spec.workload, op, [&] {
                    std::string wire = net::encode_frame(net::FrameType::Request, line);
                    wire += net::encode_frame(net::FrameType::Response, text);
                    for (const std::string& ev : events)
                        wire += net::encode_frame(net::FrameType::Event, ev);
                    wire += net::encode_frame(net::FrameType::Done, {});
                    net::FrameReader reader;
                    reader.feed(wire);
                    net::Frame frame;
                    std::size_t count = 0;
                    while (reader.next(frame) == net::FrameReader::Status::Ready) ++count;
                    return count;
                });
                if (!parsed || frames != events.size() + 3)
                    r.fail("request-path replay of '" + line + "' failed");
                ++op;
            }

    // Metrics off versus on, alternating, over identical replays.
    std::uint64_t obs_requests = 0;
    for (int rep = 0; rep < spec.obs_reps; ++rep)
        for (bool on : {false, true}) {
            obs::set_metrics_enabled(on);
            in_span(on ? "obs.replay_on" : "obs.replay_off", spec.workload, op, [&] {
                for (std::size_t i = 0; i < spec.lines.size(); ++i)
                    for (const std::string& line : spec.lines[i]) {
                        (void)twin.hub.execute_line(line, twin.ctx[i]);
                        (void)twin.hub.drain_event_lines();
                    }
            });
            ++op;
            if (on)
                for (const auto& l : spec.lines) obs_requests += l.size();
        }
    obs::set_metrics_enabled(true);
    r.layer["obs.requests"] = static_cast<double>(obs_requests);
}

/// Pump-path layers on a twin fleet built from the same setup lines:
/// ShardedScheduler::pump, checkpoint capture, rewind, and the
/// rt/link/core replays per hosted scenario.
void fleet_layers(const TcpSpec& spec, RunResult& r) {
    hub::SessionRegistry reg;
    for (const std::string& line : spec.setup) {
        const auto [name, rest] = split_address(line);
        if (name.empty()) {
            // "session open <scenario> <name>"
            const std::size_t a = rest.find(' ', 8);
            const std::size_t b = rest.find(' ', a + 1);
            reg.open(rest.substr(a + 1, b - a - 1), std::string(rest.substr(b + 1)));
        } else if (auto* e = reg.find_named(name)) {
            (void)e->controller().execute_line(rest);
        }
    }
    hub::ShardedScheduler sched;
    sched.set_threads(spec.pump_threads);
    const hub::ShardedScheduler::SliceHook hook = [](hub::SessionRegistry::Entry& e) {
        e.scenario->timeline->maybe_capture();
        (void)e.controller().drain_events();
    };
    for (int rep = 0; rep < spec.layer_reps; ++rep) {
        const std::uint64_t slices = sched.total_slices();
        const std::uint64_t steals = sched.total_steals();
        const auto op = static_cast<std::uint64_t>(rep);
        in_span("hub.pump", spec.workload, op, [&] { sched.pump(reg, spec.fleet_run, hook); });
        r.layer["hub.slices"] += static_cast<double>(sched.total_slices() - slices);
        r.layer["hub.steals"] += static_cast<double>(sched.total_steals() - steals);
        r.layer["hub.sim_ms"] += static_cast<double>(spec.fleet_run) / rt::kMs;
        r.layer["hub.ops"] += 1;
        for (const auto& e : reg.entries()) {
            const replay::Checkpoint* cp = in_span("replay.capture", spec.workload, op, [&] {
                return e->scenario->timeline->capture_now();
            });
            if (cp == nullptr) {
                r.fail("twin fleet: capture refused");
                continue;
            }
            r.layer["replay.captures"] += 1;
            r.layer["replay.snapshot_bytes"] += static_cast<double>(cp->snap.size_bytes());
        }
        for (const auto& e : reg.entries()) {
            const auto err = in_span("replay.rewind", spec.workload, op,
                                     [&] { return e->scenario->timeline->rewind_to(0); });
            if (err.has_value()) r.fail("twin fleet: rewind refused: " + err->detail);
        }
    }
    // Each rep replays every hosted scenario once: one cycle's worth.
    constexpr int kPumpPathReps = 3;
    for (int rep = 0; rep < kPumpPathReps; ++rep)
        for (const std::string& name : spec.fleet)
            pump_path_layers(spec.workload, [&name] { return proto::make_scenario(name); },
                             spec.fleet_run, static_cast<std::uint64_t>(rep), r);
}

RunResult run_tcp(const TcpSpec& spec, const Options& opt) {
    RunResult r;
    std::unique_ptr<Twin> twin = make_twin(spec, r);
    if (!r.correct) return r;

    // Set-up is timed on fresh hubs and servers.
    std::vector<double> setup_s;
    const auto timed_set_up = [&] {
        const auto t0 = Clock::now();
        std::unique_ptr<Fixture> f = set_up(spec, *twin, r);
        setup_s.push_back(us_between(t0, Clock::now()) * 1e-6);
        return f;
    };
    std::unique_ptr<Fixture> fx = timed_set_up();
    if (fx == nullptr || !r.correct) return r;

    std::uint64_t op_id = 0;
    Phase warm(opt.seed);
    closed_loop(*fx, spec, *twin, std::min(1.0, opt.seconds * 0.1), UINT64_MAX, op_id, warm, r);
    const double measure_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
    Phase main(opt.seed);
    for (int batch = 0; batch < kSetupBatches && r.correct; ++batch) {
        fx->server->run_paused([&] {
            for (int k = 0; k < kSetupsPerBatch && r.correct; ++k) (void)timed_set_up();
        });
        closed_loop(*fx, spec, *twin, measure_s / kSetupBatches, UINT64_MAX, op_id, main, r);
    }
    r.setup_repeats = setup_s.size();
    // Read before any post-processing allocates.
    r.metrics["peak_rss_mb"] = peak_rss_mb();

    Phase traced(opt.seed);
    if (opt.trace && r.correct) {
        obs::Tracer& tr = obs::tracer();
        tr.set_capacity(std::size_t{1} << 20);
        tr.start();
        fx->gen.send_clock = &fx->server->first_send_ns;
        closed_loop(*fx, spec, *twin, opt.seconds * 0.3, spec.traced_ops, op_id, traced, r);
        fx->gen.send_clock = nullptr;
    }
    fx->server->stop();
    const std::uint64_t requests = warm.requests + main.requests + traced.requests;
    check_server_counts(*fx, spec, requests,
                        warm.expected_bytes + main.expected_bytes + traced.expected_bytes, r);

    r.attempted = main.ops;
    r.failed = main.failed;
    report_latency(r, main.lat_us);
    r.metrics["cpu_us_per_op"] = main.ops ? main.program_cpu_s * 1e6 / main.ops : 0.0;
    r.metrics["setup_s"] = percentile(setup_s, 0.5);

    if (opt.trace && r.correct) {
        r.attempted += traced.ops;
        r.failed += traced.failed;
        r.layer["net.requests"] = static_cast<double>(traced.requests);
        r.layer["untraced.p50_us"] = r.metrics["latency_p50_us"];
        r.layer["traced.p50_us"] = percentile(traced.lat_us.values(), 0.5);
        twin->hub.scheduler().set_threads(spec.pump_threads);
        request_path_layers(spec, *twin, r);
        if (!spec.fleet.empty()) fleet_layers(spec, r);
        obs::tracer().stop();
        std::ofstream out(opt.trace_out, std::ios::binary);
        obs::tracer().write_chrome_json(out);
        r.layer["trace.dropped"] = static_cast<double>(obs::tracer().dropped());
    }
    fx.reset();
    return r;
}

} // namespace

RunResult run_query_tcp(const Options& opt) {
    TcpSpec spec;
    spec.workload = "query_tcp";
    spec.connections = 4;
    spec.setup = {"session open turntable tt", "session open blinker bl",
                  "@tt break add state drilling", "@bl break add state on", "run 250"};
    spec.attach = {"attach bl", "attach tt", "attach bl"};
    // A uniform mix: every connection sends each of the five read-only
    // verbs once per round, in an order shuffled by the seed. Even
    // connections address tt and odd ones bl; `session list` is hub-level.
    // `query stats` and `metrics` carry counters, so they could not have
    // one expected byte string.
    const std::vector<std::string> pools[2] = {
        {"@tt info", "@tt query state sequencer", "@tt query signal motor", "@tt break list",
         "session list"},
        {"@bl info", "@bl query state toggler", "@bl query signal led", "@bl break list",
         "session list"}};
    for (int i = 0; i < spec.connections; ++i) {
        std::vector<std::string> order = pools[i % 2];
        std::mt19937_64 rng(mix_seed(opt.seed, 100 + static_cast<std::uint64_t>(i)));
        std::shuffle(order.begin(), order.end(), rng);
        spec.lines.push_back(std::move(order));
    }
    spec.traced_ops = 40000;
    spec.layer_reps = 400;
    spec.obs_reps = 200;
    return run_tcp(spec, opt);
}

/// A gen:<seed> scenario name for the debug fleet: the first candidate in
/// a stream derived from the run's seed whose target emits 1600-1800 UART
/// bytes in 300 ms, the size class of a 10 ms + 20 ms actor pair. The
/// models still differ (states, guards, chains, stimuli), but a cycle's
/// work varies little between seeds. Empty when no candidate fits.
std::string sized_gen_scenario(std::uint64_t seed, std::uint64_t salt) {
    for (std::uint64_t k = 0; k < 1000; ++k) {
        const std::string name =
            "gen:" + std::to_string(mix_seed(seed, salt * 1000 + k) % 1000000000u);
        std::unique_ptr<proto::Scenario> s = proto::make_scenario(name);
        if (s == nullptr) continue;
        std::uint64_t bytes = 0;
        s->target.set_debug_sink(
            [&bytes](int, std::span<const std::uint8_t> b, rt::SimTime) { bytes += b.size(); });
        s->target.run_for(300 * rt::kMs);
        if (bytes >= 1600 && bytes <= 1800) return name;
    }
    return {};
}

RunResult run_debug_tcp(const Options& opt) {
    TcpSpec spec;
    spec.workload = "debug_tcp";
    spec.connections = 1;
    spec.pump_threads = 2;
    spec.spin_client = true;
    const std::string g1 = sized_gen_scenario(opt.seed, 1);
    const std::string g2 = sized_gen_scenario(opt.seed, 2);
    if (g1.empty() || g2.empty()) {
        RunResult r;
        r.fail("no generated model of the debug fleet's size class");
        return r;
    }
    spec.fleet = {"turntable", "lift_fault", g1, g2};
    spec.fleet_run = 300 * rt::kMs;
    spec.setup = {"session open turntable tt", "session open lift_fault lf",
                  "session open " + g1 + " g1", "session open " + g2 + " g2"};
    const char* sessions[] = {"tt", "lf", "g1", "g2"};
    // Breakpoints on the fixed scenarios only: a generated model would stop
    // wherever its seed happens to reach the state, so its share of a
    // cycle's work would vary from seed to seed.
    spec.setup.emplace_back("@tt break add state drilling");
    spec.setup.emplace_back("@lf break add state moving");
    for (const char* s : sessions) spec.setup.push_back("@" + std::string(s) + " checkpoint auto 50");
    // A t=0 checkpoint to rewind to, then the rewind every cycle ends
    // with, so the first cycle starts in the same cadence state as the rest.
    for (const char* s : sessions) spec.setup.push_back("@" + std::string(s) + " checkpoint now");
    for (const char* s : sessions) spec.setup.push_back("@" + std::string(s) + " rewind 0");

    // One debug cycle; rewinding to the t=0 checkpoints makes every cycle
    // start from the same state.
    std::vector<std::string> cycle = {"run 300",
                                      "@tt query state sequencer",
                                      "@lf query state lift",
                                      "@g1 query state a0_sm",
                                      "@g2 query state a0_sm",
                                      "@tt step",
                                      "@tt resume",
                                      "@lf step",
                                      "@lf resume",
                                      "@tt render ascii",
                                      "@lf render ascii",
                                      "@g1 trace timing",
                                      "@g2 trace timing"};
    for (const char* s : sessions) cycle.push_back("@" + std::string(s) + " rewind 0");
    spec.lines = {cycle};
    spec.op_len = cycle.size();
    spec.traced_ops = 400;
    spec.layer_reps = 30;
    spec.obs_reps = 15;
    return run_tcp(spec, opt);
}

} // namespace perfbench
