// IEEE 1149.1 (JTAG) test access port — the paper's passive debug channel.
//
// The paper proposes JTAG so the debugger can fetch real-time data from
// the target's RAM "passively", i.e. without instrumentation code and
// without consuming target CPU cycles. We model:
//   - the full 16-state TAP controller driven by TMS on each TCK edge,
//   - a 4-bit instruction register with IDCODE / ADDR / DATA / BYPASS,
//   - a memory-access data register: ADDR latches a byte address on
//     Update-DR; DATA captures RAM[addr] on Capture-DR (read) and writes
//     RAM[addr] on Update-DR (write),
//   - a host-side probe that sequences TMS/TDI vectors and accounts TCK
//     cycles, from which polling cost/latency derives (bench C4).
#pragma once

#include <cstdint>
#include <string>

#include "rt/memory.hpp"

namespace gmdf::link {

/// The 16 TAP controller states of IEEE 1149.1.
enum class TapState : std::uint8_t {
    TestLogicReset, RunTestIdle,
    SelectDrScan, CaptureDr, ShiftDr, Exit1Dr, PauseDr, Exit2Dr, UpdateDr,
    SelectIrScan, CaptureIr, ShiftIr, Exit1Ir, PauseIr, Exit2Ir, UpdateIr,
};

[[nodiscard]] const char* to_string(TapState s);

/// Next TAP state for one TCK rising edge with the given TMS level.
[[nodiscard]] TapState tap_next(TapState s, bool tms);

/// Instruction opcodes (4-bit IR).
enum class JtagInstr : std::uint8_t {
    Idcode = 0x2,
    Addr = 0x8,   ///< DR = 32-bit memory address register
    /// DR = 33-bit memory data register: bits 0..31 data, bit 32 is the
    /// write-enable. Capture-DR loads RAM[addr] (passive read); Update-DR
    /// stores to RAM[addr] only when the write-enable bit was shifted in,
    /// so plain reads never disturb target memory.
    Data = 0x9,
    Bypass = 0xF,
};

/// Device-side TAP: owns the controller state and shift registers and
/// fronts one node's MemoryMap. All memory accesses made through the TAP
/// are passive: they never touch the simulated CPU.
class JtagTap {
public:
    /// `mem` must outlive the TAP.
    explicit JtagTap(rt::MemoryMap& mem, std::uint32_t idcode = 0x0B73'D02F)
        : mem_(&mem), idcode_(idcode) {}

    /// One TCK rising edge: advances the controller, shifts TDI through
    /// the selected register; returns TDO (valid while shifting).
    bool clock(bool tms, bool tdi);

    [[nodiscard]] TapState state() const { return state_; }

    /// Total TCK edges applied (the probe's time accounting reads this).
    [[nodiscard]] std::uint64_t tck_count() const { return tck_; }

private:
    [[nodiscard]] std::size_t dr_length() const;
    void capture_dr();
    void update_dr();

    rt::MemoryMap* mem_;
    std::uint32_t idcode_;
    TapState state_ = TapState::TestLogicReset;
    std::uint8_t ir_ = static_cast<std::uint8_t>(JtagInstr::Idcode);
    std::uint8_t ir_shift_ = 0;
    std::uint64_t dr_shift_ = 0;
    std::uint32_t addr_ = 0;
    std::uint64_t tck_ = 0;
};

/// Host-side probe: sequences TMS/TDI vectors against a TAP and converts
/// TCK counts into wall time at the configured TCK frequency.
class JtagProbe {
public:
    /// `tap` must outlive the probe.
    JtagProbe(JtagTap& tap, double tck_hz = 1e6) : tap_(&tap), tck_hz_(tck_hz) {}

    /// Five TMS=1 clocks: guaranteed Test-Logic-Reset from any state.
    void reset();

    /// Loads a 4-bit instruction (ends in Run-Test/Idle).
    void load_ir(JtagInstr instr);

    /// Shifts `nbits` through the DR (LSB first), returning captured bits.
    std::uint64_t shift_dr(std::uint64_t tdi_bits, std::size_t nbits);

    /// Reads the device IDCODE.
    std::uint32_t read_idcode();

    /// Passive 32-bit memory read/write at a byte address.
    std::uint32_t read_word(std::uint32_t addr);
    void write_word(std::uint32_t addr, std::uint32_t value);

    /// Wall-clock cost of everything done so far, at tck_hz.
    [[nodiscard]] double elapsed_seconds() const {
        return static_cast<double>(tap_->tck_count()) / tck_hz_;
    }

    /// TCK cycles consumed by one read_word (measured, constant).
    [[nodiscard]] std::uint64_t cycles_per_read();

private:
    void set_address(std::uint32_t addr);

    JtagTap* tap_;
    double tck_hz_;
};

} // namespace gmdf::link
