#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace gmdf::obs {

namespace {

std::atomic<int> g_next_tid{1};

void append_json_escaped(std::string& out, std::string_view s) {
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

} // namespace

void Tracer::start() {
    // Quiesce recorders before clearing so a span racing stop()/start()
    // lands either in the old capture or the new one, never in a torn ring.
    enabled_.store(false, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mu_);
        events_.clear();
        dropped_ = 0;
        thread_names_.clear();
    }
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::set_capacity(std::size_t events) {
    stop();
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = std::max<std::size_t>(1, events);
}

std::uint64_t Tracer::since_start(std::chrono::steady_clock::time_point t) const {
    // A span opened before a re-start() begins at the new capture's start.
    if (t <= epoch_) return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

void Tracer::record(std::string name, const char* category, std::uint64_t begin_ns,
                    std::uint64_t duration_ns, int tid, std::string args_json) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= capacity_) {
        events_.pop_front();
        ++dropped_;
    }
    events_.push_back(Event{std::move(name), category, begin_ns, duration_ns, tid,
                            std::move(args_json)});
}

void Tracer::set_thread_name(int tid, std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    thread_names_[tid] = std::move(name);
}

std::size_t Tracer::event_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::uint64_t Tracer::dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void Tracer::write_chrome_json(std::ostream& out) const {
    std::unique_lock<std::mutex> lock(mu_);
    std::vector<Event> events(events_.begin(), events_.end());
    const std::map<int, std::string> thread_names = thread_names_;
    lock.unlock();
    std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.begin_ns < b.begin_ns;
    });

    out << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& [tid, name] : thread_names) {
        std::string line;
        line += first ? "\n" : ",\n";
        line += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
        line += std::to_string(tid);
        line += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        append_json_escaped(line, name);
        line += "\"}}";
        out << line;
        first = false;
    }
    char num[32];
    for (const Event& ev : events) {
        std::string line;
        line += first ? "\n" : ",\n";
        line += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
        line += std::to_string(ev.tid);
        std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(ev.begin_ns) / 1000.0);
        line += ",\"ts\":";
        line += num;
        std::snprintf(num, sizeof(num), "%.3f", static_cast<double>(ev.duration_ns) / 1000.0);
        line += ",\"dur\":";
        line += num;
        line += ",\"cat\":\"";
        append_json_escaped(line, ev.category);
        line += "\",\"name\":\"";
        append_json_escaped(line, ev.name);
        line += '"';
        if (!ev.args_json.empty()) {
            line += ",\"args\":";
            line += ev.args_json;
        }
        line += '}';
        out << line;
        first = false;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Tracer& tracer() {
    static Tracer instance;
    return instance;
}

int current_trace_tid() {
    thread_local int tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    return tid;
}

void Span::arg(std::string_view key, std::string_view value) {
    if (!traced_) return;
    args_json_ += args_json_.empty() ? "{\"" : ",\"";
    append_json_escaped(args_json_, key);
    args_json_ += "\":\"";
    append_json_escaped(args_json_, value);
    args_json_ += '"';
}

} // namespace gmdf::obs
