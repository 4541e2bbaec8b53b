#include "rt/des.hpp"

#include <algorithm>
#include <stdexcept>

namespace gmdf::rt {

void Simulator::push_key(Key k) {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::push(SimTime t, std::uint64_t seq, std::function<void()> fn,
                     SimTime period, std::uint64_t id) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    s.fn = std::move(fn);
    s.period = period;
    s.id = id;
    push_key({t, seq, slot});
}

void Simulator::free_slot(std::uint32_t slot) {
    slots_[slot].fn = nullptr;
    free_slots_.push_back(slot);
}

Simulator::ScheduledEvent Simulator::at(SimTime t, std::function<void()> fn) {
    if (t < now_) throw std::invalid_argument("cannot schedule event in the past");
    ScheduledEvent handle{next_id_++, seq_++};
    push(t, handle.seq, std::move(fn), 0, handle.id);
    return handle;
}

Simulator::ScheduledEvent Simulator::every(SimTime start, SimTime period,
                                           std::function<void()> fn) {
    if (period <= 0) throw std::invalid_argument("period must be positive");
    if (start < now_) throw std::invalid_argument("cannot schedule event in the past");
    // One closure for the task's whole lifetime: step() re-arms a
    // periodic event by pushing a new key for the same slot, so a
    // periodic tick allocates nothing.
    ScheduledEvent handle{next_id_++, seq_++};
    push(start, handle.seq, std::move(fn), period, handle.id);
    return handle;
}

void Simulator::schedule_restored(SimTime t, std::uint64_t seq,
                                  std::function<void()> fn) {
    // One-shot ids are never matched (only periodic events restore by
    // id), and consuming next_id_ here would make a restored simulator
    // drift from the original id sequence — breaking bit-identical
    // re-capture. Restored one-shots use the reserved id 0.
    push(t, seq, std::move(fn), 0, 0);
}

bool Simulator::step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Key k = heap_.back();
    heap_.pop_back();
    now_ = k.t;
    // The handler may schedule events and so grow slots_: it runs from a
    // local, never from inside the table.
    std::function<void()> fn = std::move(slots_[k.slot].fn);
    if (slots_[k.slot].period == 0) {
        free_slot(k.slot);
        fn();
        return true;
    }
    fn();
    // Re-arm after the handler, matching one-shot ordering: events the
    // handler scheduled get earlier sequence numbers.
    Slot& slot = slots_[k.slot];
    slot.fn = std::move(fn);
    push_key({k.t + slot.period, seq_++, k.slot});
    return true;
}

void Simulator::run_until(SimTime horizon) {
    while (!heap_.empty() && heap_.front().t <= horizon) step();
    if (now_ < horizon) now_ = horizon;
}

void Simulator::run_all() {
    while (step()) {}
}

std::size_t Simulator::pending_one_shot() const {
    std::size_t n = 0;
    for (const Key& k : heap_)
        if (slots_[k.slot].period == 0) ++n;
    return n;
}

void Simulator::save_state(StateWriter& w) const {
    w.i64(now_);
    w.u64(seq_);
    w.u64(next_id_);
    // Canonical order (by id), not heap-layout order: the heap's vector
    // layout is rebuilt on restore, and a snapshot of the restored
    // simulator must be bit-identical to the original.
    std::vector<const Key*> periodic;
    for (const Key& k : heap_)
        if (slots_[k.slot].period > 0) periodic.push_back(&k);
    std::sort(periodic.begin(), periodic.end(), [this](const Key* a, const Key* b) {
        return slots_[a->slot].id < slots_[b->slot].id;
    });
    w.size(periodic.size());
    for (const Key* k : periodic) {
        const Slot& slot = slots_[k->slot];
        w.u64(slot.id);
        w.i64(k->t);
        w.u64(k->seq);
        w.i64(slot.period);
    }
}

void Simulator::load_state(StateReader& r) {
    SimTime now = r.i64();
    std::uint64_t seq = r.u64();
    std::uint64_t next_id = r.u64();
    struct Saved {
        std::uint64_t id;
        SimTime t;
        std::uint64_t seq;
        SimTime period;
    };
    std::vector<Saved> saved;
    std::size_t n = r.size();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t id = r.u64();
        SimTime t = r.i64();
        std::uint64_t s = r.u64();
        SimTime period = r.i64();
        saved.push_back({id, t, s, period});
    }
    std::sort(saved.begin(), saved.end(),
              [](const Saved& a, const Saved& b) { return a.id < b.id; });
    auto find = [&saved](const Slot& slot) -> const Saved* {
        if (slot.period == 0) return nullptr;
        auto it = std::lower_bound(
            saved.begin(), saved.end(), slot.id,
            [](const Saved& s, std::uint64_t id) { return s.id < id; });
        return it != saved.end() && it->id == slot.id ? &*it : nullptr;
    };
    // Every recorded periodic event must still be live here (its closure
    // cannot be re-created); checked before anything changes.
    std::size_t live = 0;
    for (const Key& k : heap_)
        if (find(slots_[k.slot]) != nullptr) ++live;
    if (live != saved.size())
        throw std::runtime_error(
            "snapshot names a periodic event that no longer exists");

    now_ = now;
    seq_ = seq;
    next_id_ = next_id;
    // One-shots are dropped (their owners re-create them); periodic
    // events registered after the snapshot didn't exist then and are
    // dropped too; surviving periodic events rewind to their recorded
    // fire time and sequence number.
    std::size_t kept = 0;
    for (const Key& k : heap_) {
        Slot& slot = slots_[k.slot];
        const Saved* s = find(slot);
        if (s == nullptr) {
            free_slot(k.slot);
            continue;
        }
        slot.period = s->period;
        heap_[kept++] = {s->t, s->seq, k.slot};
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
}

} // namespace gmdf::rt
