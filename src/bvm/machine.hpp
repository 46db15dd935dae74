// The Boolean Vector Machine simulator (paper §2).
//
// All register rows are packed bit-vectors; executing one instruction is a
// handful of word-parallel Boolean sweeps, so the simulator is
// cycle-accurate in instruction counts while running 64 PEs per host word.
//
// Host access (poke/peek/load_register/read_register) models the front-end
// computer's DMA and is counted separately from executed instructions; the
// serial I-chain (`Nbr::I` plus input/output queues) is the paper's own
// 1-bit-per-instruction I/O mechanism and is also provided.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "bvm/bitvec.hpp"
#include "bvm/config.hpp"
#include "bvm/instr.hpp"

namespace ttp::bvm {

class Machine {
 public:
  explicit Machine(BvmConfig cfg);

  const BvmConfig& config() const noexcept { return cfg_; }
  std::size_t num_pes() const noexcept { return n_; }

  /// Executes one instruction on all active & enabled PEs.
  void exec(const Instr& in);
  /// Executes a sequence.
  void run(const std::vector<Instr>& prog);

  std::uint64_t instr_count() const noexcept { return instr_count_; }
  /// Stable reference to the instruction counter, for obs::Span probes.
  const std::uint64_t& instr_counter() const noexcept { return instr_count_; }
  void reset_instr_count() noexcept { instr_count_ = 0; }

  /// Streams one disassembled line per executed instruction (nullptr to
  /// disable). The front-end computer's debug console.
  void set_trace(std::ostream* os) noexcept { trace_ = os; }

  /// Appends every executed instruction to `sink` (nullptr to stop). The
  /// BVM is SIMD: a microprogram's instruction stream is static for a given
  /// problem SHAPE (all data dependence is via per-PE register contents),
  /// so a recorded program can be replayed against different data — the
  /// "control bits precalculated" mode of operation.
  void set_recorder(std::vector<Instr>* sink) noexcept { recorder_ = sink; }

  /// Debug dump of a register row as a 0/1 string in PE order.
  std::string dump_row(Reg reg) const;

  // --- serial I/O chain ---
  void push_input(bool bit) { input_.push_back(bit); }
  void push_input_bits(const std::vector<bool>& bits);
  std::size_t input_pending() const noexcept { return input_.size(); }
  const std::vector<bool>& output() const noexcept { return output_; }
  void clear_output() { output_.clear(); }

  // --- host (front-end) access; not BVM instructions ---
  bool peek(Reg reg, std::size_t pe) const;
  void poke(Reg reg, std::size_t pe, bool v);
  /// Reads/writes a whole register row.
  const BitVec& row(Reg reg) const;
  BitVec& row(Reg reg);

  /// Reads the p-bit little-endian value spread over registers
  /// R[base..base+p-1] at one PE (host DMA).
  std::uint64_t peek_value(int base, int bits, std::size_t pe) const;
  void poke_value(int base, int bits, std::size_t pe, std::uint64_t v);

  // --- addressing helpers ---
  std::size_t addr(std::size_t cycle, int pos) const noexcept {
    return cycle * static_cast<std::size_t>(cfg_.Q()) +
           static_cast<std::size_t>(pos);
  }
  int pos_of(std::size_t pe) const noexcept {
    return static_cast<int>(pe & (static_cast<std::size_t>(cfg_.Q()) - 1));
  }

 private:
  // Routes `src` through a neighbor read: out[pe] = src[neighbor(pe)].
  void route(const BitVec& src, Nbr nbr, BitVec& out);
  void route_cycle_shift(const BitVec& src, bool toward_zero, BitVec& out) const;
  void route_xs(const BitVec& src, BitVec& out) const;
  void route_xp(const BitVec& src, BitVec& out) const;
  void route_lateral(const BitVec& src, BitVec& out) const;
  void route_ichain(const BitVec& src, BitVec& out);

  const BitVec& resolve(Reg reg) const;
  BitVec& resolve_mut(Reg reg);

  // Evaluates tt(F, D, B) word-parallel into out.
  static void apply_tt(std::uint8_t tt, const BitVec& f, const BitVec& d,
                       const BitVec& b, BitVec& out);

  // Builds the activation mask (over PEs) for an instruction.
  void activation_mask(const Instr& in, BitVec& mask) const;

  BvmConfig cfg_;
  std::size_t n_;
  BitVec a_, b_, e_;
  std::vector<BitVec> r_;
  std::deque<bool> input_;
  std::vector<bool> output_;
  std::uint64_t instr_count_ = 0;
  std::ostream* trace_ = nullptr;
  std::vector<Instr>* recorder_ = nullptr;

  // Scratch rows reused across exec calls to avoid per-instruction allocs.
  BitVec scratch_d_, scratch_f_, scratch_g_, scratch_mask_;

  // Precomputed word masks, repeating patterns over in-cycle positions.
  std::uint64_t pattern_for_positions(std::uint64_t act_set) const;
};

}  // namespace ttp::bvm
