#pragma once
// One VWR2A column: four RCs plus the three specialized slots (LCU, LSU,
// MXCU) advancing in lock-step behind a shared program counter (paper
// Sec 3.1/3.3). The column owns its three VWRs, its SRF and its shuffle
// unit; the SPM is shared across columns and passed in by the top level.
//
// Cycle semantics (reconstructed from the paper's Table 1 flow):
//  * All register state (RC register files, RC result registers, LCU loop
//    counters, the MXCU slice index, VWR contents, the PC) commits at end of
//    cycle; every read during a cycle observes the pre-cycle state.
//  * Neighbour operands (kRcUp/kRcDown/kRcCross) read the neighbouring RC's
//    previous-cycle result register.
//  * The LCU resolves branches combinationally: the next PC takes effect in
//    the following cycle with no delay slot (zero-overhead loops, since the
//    LCU occupies its own slot).
//
// Execution model: each program is analyzed once when it is decoded
// (cgra/line.hpp); step() executes the pre-resolved line at the PC and
// charges its energy deltas as one block.
//
// Precise faults: a line raises its error only when it executes, before it
// changes anything -- column registers, VWRs, SRF, PC, SPM data and row
// stamps, and meter counts are exactly as the previous line left them, and
// the executed-cycle count does not advance. The faults are:
//  * StructuralHazard: a port conflict the line makes by itself (two SRF
//    addresses, an SRF write beside another SRF access, an LSU row write
//    and an RC word write into one VWR) -- kernels must be scheduled
//    hazard-free, as on the real machine;
//  * DecodeError: an illegal field in one of the line's configuration words;
//  * RangeError: an LSU SPM row or word address out of range;
//  * SimError: a kRcCross operand without a synchronized partner column, or
//    a branch (or fall-through) past the end of the program.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cgra/line.hpp"
#include "cgra/tracecache.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"
#include "isa/instr.hpp"
#include "isa/program.hpp"
#include "mem/regfile.hpp"
#include "mem/spm.hpp"
#include "mem/srf.hpp"
#include "mem/vwr.hpp"

namespace vwr2a::cgra {

struct QuadStep;  // column_replay.cpp: a fused-loop line, routing resolved

/// Per-RC register file (R0, R1). The RC result registers are
/// Column::rc_outputs().
struct RcState {
  std::array<Word, arch::kRcRegs> rf{};
};

/// One column of the reconfigurable array.
class Column {
 public:
  using RcOutputs = std::array<Word, arch::kRcsPerColumn>;

  Column(unsigned id, mem::Spm& spm, energy::EnergyMeter& meter);

  /// Loads an analyzed program (cgra::decode_program) into the unit
  /// program memories, aliasing it. Resets the PC. Configuration-load cost
  /// is charged by the top level. Vwr2a takes each kernel's analysis from
  /// its TraceCache (decoded()), so a kernel switch or a fleet of devices
  /// never re-decodes a program.
  void load_program(std::shared_ptr<const DecodedProgram> dec);

  /// Starts execution at PC 0.
  void start();

  /// True while the kernel has not executed EXIT.
  bool running() const { return running_; }

  /// Current program counter.
  unsigned pc() const { return pc_; }

  /// Executes one cycle. `cross` points at the other column's previous-cycle
  /// RC results when both columns run synchronized; nullptr otherwise (a
  /// line reading a kRcCross operand then faults). Throws the executing
  /// line's fault, if any, with no effect (see the header comment).
  void step(const RcOutputs* cross);

  /// Previous-cycle RC results (for the cross-column network).
  const RcOutputs& rc_outputs() const { return rc_prev_; }

  // --- trace-cache replay (see cgra/tracecache.hpp) --------------------------

  /// Attaches (or detaches, with nullptr) the compiled trace of the loaded
  /// program. The trace is consulted only by the *_traced() entry points;
  /// step() stays the interpreter.
  void set_trace(std::shared_ptr<const CompiledTrace> trace) {
    trace_ = std::move(trace);
  }

  /// True when a replayable compiled trace is attached.
  bool has_trace() const { return trace_ != nullptr && trace_->ok; }

  /// Replays the compiled trace from the current PC to EXIT, recording SPM
  /// row-access masks (and, when `undo` is given, a copy-on-write SPM undo
  /// log for conflict rollback). Returns the cycles executed. Bit-, cycle-
  /// and energy-identical to stepping the interpreter the same number of
  /// cycles. Throws tc::ReplayBudgetExceeded past `budget` cycles (the
  /// caller rolls back): a decoupled column polling its partner's SPM
  /// writes would otherwise spin forever.
  Cycle run_traced(tc::SpmUndo* undo, Cycle budget = ~Cycle{0});

  /// Replays exactly one superblock from the current PC (a fused self-loop
  /// replays its whole trip count). Returns the cycles executed; clears
  /// running() at EXIT. Throws tc::ReplayBudgetExceeded when a fused loop
  /// alone would exceed `budget_left`. The caller brackets a sequence of
  /// these with begin_traced()/end_traced(); the sync scheduler drives
  /// free stretches through this entry point.
  Cycle step_block_traced(Cycle budget_left);

  /// SPM rows this column read / wrote during the last replay, across both
  /// mask tiers (free-running and sync-scheduled accesses).
  std::uint64_t spm_read_mask() const { return spm_rmask_[0] | spm_rmask_[1]; }
  std::uint64_t spm_write_mask() const { return spm_wmask_[0] | spm_wmask_[1]; }

  /// Free-tier-only masks: rows touched while free-running (decoupled
  /// blocks and dynamically addressed accesses). The post-hoc conflict
  /// check intersects these with the partner's totals; sync-tier accesses
  /// are excluded because the schedule already ordered them.
  std::uint64_t spm_free_read_mask() const { return spm_rmask_[0]; }
  std::uint64_t spm_free_write_mask() const { return spm_wmask_[0]; }

  /// Selects which mask tier subsequent traced SPM accesses accumulate
  /// into: 0 = free-running, 1 = sync-scheduled. begin_traced() resets to 0.
  void set_mask_tier(unsigned tier) { mask_tier_ = tier & 1u; }

  /// Publishes (or clears, nullptr) the partner column's previous-cycle RC
  /// results for kCross operands. Only the per-cycle lockstep tier keeps
  /// this current; anywhere else a kCross read faults like the interpreter.
  void set_cross(const RcOutputs* cross) { cross_ = cross; }

  /// True while a sync-scheduled block is mid-flight (between step_traced()
  /// calls); block classification cannot change until it completes.
  bool mid_block() const { return tb_ != nullptr; }

  /// Lockstep traced stepping, for kernels whose columns communicate
  /// through the SPM: begin_traced() arms the replay state, step_traced()
  /// executes one compiled line (one cycle of this column) with the same
  /// per-cycle interleaving as the interpreter, end_traced() syncs the
  /// observable state back. Bit-identical to step() for traceable programs.
  ///
  /// Replay energy is deferred: each block execution only bumps that
  /// block's run count, and end_traced() folds the counts into the meter
  /// once (one add_block per executed block, times its count). A launch
  /// that faults or rolls back never reaches end_traced() -- or has its
  /// meter restored after it -- so its counts are dropped with it; the next
  /// begin_traced() clears them.
  void begin_traced(tc::SpmUndo* undo);
  void step_traced();
  void end_traced();

  /// Full architectural state of a column, snapshotted before a decoupled
  /// replay so a detected cross-column SPM conflict can roll back and rerun
  /// on the interpreter.
  struct Checkpoint {
    std::array<mem::Vwr::Row, arch::kVwrsPerColumn> vwr;
    std::array<Word, arch::kSrfEntries> srf;
    std::array<RcState, arch::kRcsPerColumn> rcs;
    RcOutputs rc_prev;
    std::array<Word, arch::kLcuRegs> lcu_rf;
    std::array<std::uint32_t, 2> lsu_ptr;
    unsigned idx = 0;
    SWord aux = 0;
    unsigned pc = 0;
    bool running = false;
    Cycle executed = 0;
  };
  void save_state(Checkpoint& ck) const;
  void restore_state(const Checkpoint& ck);

  // --- state access for the host interface and tests ------------------------
  mem::Srf& srf() { return srf_; }
  const mem::Srf& srf() const { return srf_; }
  mem::Vwr& vwr(VwrSel v) { return vwrs_[static_cast<unsigned>(v)]; }
  const mem::Vwr& vwr(VwrSel v) const { return vwrs_[static_cast<unsigned>(v)]; }
  const RcState& rc_state(unsigned r) const { return rcs_.at(r); }
  unsigned mxcu_index() const { return idx_; }
  SWord mxcu_aux() const { return aux_; }
  Word lcu_reg(unsigned r) const { return lcu_rf_.at(r); }
  std::uint32_t lsu_ptr(unsigned p) const { return lsu_ptr_.at(p); }
  unsigned id() const { return id_; }

  /// Cycles this column has executed since construction (excludes stalls and
  /// configuration loads, which the top level accounts).
  Cycle executed_cycles() const { return executed_; }

  /// Disassembles the VLIW line at program address `pc` (tracing/debugging).
  std::string line_asm(unsigned pc) const;

 private:
  /// Throws RangeError when the LSU op of `u` would address outside the
  /// SPM. Pure: pointer post-increments are left to the line's execution.
  void check_lsu_address(const tc::LsuUop& u) const;

  // --- line execution and trace replay (column_replay.cpp) ------------------
  /// Executes one legal micro-op line: evaluate against pre-cycle state,
  /// then commit. Faults are the caller's business (step() decides them
  /// first; replay rolls back). exec_dispatch picks the quad fast path.
  void exec_line(const tc::Line& L);
  void exec_quad_fast(const tc::Line& L);
  void exec_quad_rcs(const tc::Line& L);
  void quad_load(const tc::Src& s, Word* v) const;
  /// Replays the whole trip count of a fused DBNZ self-loop. Quad lines
  /// with at most an index step and an SRF load (the elementwise and
  /// multiply-accumulate work of every kernel inner loop) get their operand
  /// routing and opcode dispatch resolved once for the trip count instead
  /// of per line; the other lines replay through exec_dispatch. The
  /// per-line load/compute/store order is preserved wherever it is
  /// observable, so results are bit-identical even when a destination
  /// aliases a source.
  void run_fused_loop(const tc::Block& b, std::uint64_t iters);
  /// The elementwise form of run_fused_loop for an all-quad body whose
  /// index walks +-1 once per iteration over at most one slice: every
  /// iteration then touches its own slice word, so each line runs over all
  /// words before the next line starts. Returns false when the body does
  /// not qualify (a register carried across iterations, other steps).
  bool run_fused_map(const tc::Block& b, std::uint64_t iters,
                     QuadStep* steps);
  void exec_dispatch(const tc::Line& L) {
    L.kind == tc::Line::Kind::kQuadFast ? exec_quad_fast(L)
                                        : exec_line(L);
  }
  /// Evaluates a block terminator; returns the next pc and sets `exit`.
  unsigned eval_term(const tc::Block& b, bool& exit);
  Word read_src(const tc::Src& s) const;
  /// The SPM address of an LSU op against the current state; lsu_addr()
  /// also applies a pointer mode's post-increment.
  unsigned lsu_peek_addr(const tc::LsuUop& u) const;
  unsigned lsu_addr(const tc::LsuUop& u);
  const Word* spm_read_row(unsigned row);
  void spm_write_row(unsigned row, const mem::Vwr::Row& v);
  Word spm_read_word(unsigned word);
  void spm_write_word(unsigned word, Word v);

  unsigned id_;
  mem::Spm* spm_;
  energy::EnergyMeter* meter_;

  mem::Srf srf_;
  std::array<mem::Vwr, arch::kVwrsPerColumn> vwrs_;
  std::array<RcState, arch::kRcsPerColumn> rcs_{};
  RcOutputs rc_prev_{};
  std::array<Word, arch::kLcuRegs> lcu_rf_{};
  std::array<std::uint32_t, 2> lsu_ptr_{};  ///< LSU pointer registers P0, P1
  unsigned idx_ = 0;   ///< MXCU shared VWR slice index (mod kSliceWords)
  SWord aux_ = 0;      ///< MXCU auxiliary register

  std::shared_ptr<const DecodedProgram> prog_;
  unsigned pc_ = 0;
  bool running_ = false;
  Cycle executed_ = 0;

  // --- trace replay state ----------------------------------------------------
  std::shared_ptr<const CompiledTrace> trace_;
  tc::SpmUndo* undo_ = nullptr;      ///< active only during traced replay
  /// SPM row-access masks of the current replay, split by tier ([0] = free-
  /// running, [1] = sync-scheduled) so the post-hoc conflict check can
  /// exclude accesses the sync schedule already ordered. Indexed stores
  /// keep the hot accessors branch-free.
  std::uint64_t spm_rmask_[2] = {0, 0};
  std::uint64_t spm_wmask_[2] = {0, 0};
  unsigned mask_tier_ = 0;
  const RcOutputs* cross_ = nullptr; ///< partner snapshot for kCross operands
  mem::Vwr::Row shuf_scratch_{};     ///< pending shuffle result staging
  const tc::Block* tb_ = nullptr;    ///< lockstep replay: current block
  unsigned tb_line_ = 0;             ///< lockstep replay: line within block
  /// Executions of each trace block since begin_traced(), folded into the
  /// meter by end_traced().
  std::vector<std::uint64_t> block_runs_;
};

} // namespace vwr2a::cgra
