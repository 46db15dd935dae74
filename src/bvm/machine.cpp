#include "bvm/machine.hpp"

#include <ostream>
#include <stdexcept>

namespace ttp::bvm {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};

// Evaluates a 2-input truth-table nibble on packed words.
inline std::uint64_t eval2(unsigned nib, std::uint64_t f, std::uint64_t d) {
  switch (nib & 0xF) {
    case 0x0: return 0;
    case 0x1: return ~f & ~d;
    case 0x2: return f & ~d;
    case 0x3: return ~d;
    case 0x4: return ~f & d;
    case 0x5: return ~f;
    case 0x6: return f ^ d;
    case 0x7: return ~(f & d);
    case 0x8: return f & d;
    case 0x9: return ~(f ^ d);
    case 0xA: return f;
    case 0xB: return f | ~d;
    case 0xC: return d;
    case 0xD: return ~f | d;
    case 0xE: return f | d;
    default: return kAll;
  }
}

// Builds a 64-bit word whose bit i depends only on (i mod period) via fn.
template <typename Fn>
std::uint64_t periodic_word(int period, Fn fn) {
  std::uint64_t w = 0;
  for (int i = 0; i < 64; ++i) {
    if (fn(i % period)) w |= std::uint64_t{1} << i;
  }
  return w;
}

}  // namespace

Machine::Machine(BvmConfig cfg) : cfg_(cfg), n_(cfg.num_pes()) {
  cfg_.check();
  if (cfg_.r > 6) {
    // Word-parallel routing relies on cycles aligning with 64-bit words.
    throw std::invalid_argument("Machine: cycle length above 64 unsupported");
  }
  a_ = BitVec(n_);
  b_ = BitVec(n_);
  e_ = BitVec(n_, true);  // all PEs enabled at power-on
  r_.assign(static_cast<std::size_t>(cfg_.regs), BitVec(n_));
  scratch_d_ = BitVec(n_);
  scratch_f_ = BitVec(n_);
  scratch_g_ = BitVec(n_);
  scratch_mask_ = BitVec(n_);
}

const BitVec& Machine::resolve(Reg reg) const {
  switch (reg.kind) {
    case Reg::Kind::A: return a_;
    case Reg::Kind::B: return b_;
    case Reg::Kind::E: return e_;
    case Reg::Kind::R: return r_.at(reg.index);
  }
  throw std::logic_error("Machine::resolve: bad register");
}

BitVec& Machine::resolve_mut(Reg reg) {
  return const_cast<BitVec&>(resolve(reg));
}

std::uint64_t Machine::pattern_for_positions(std::uint64_t act_set) const {
  const int Q = cfg_.Q();
  return periodic_word(Q <= 64 ? Q : 64,
                       [&](int p) { return ((act_set >> p) & 1u) != 0; });
}

void Machine::activation_mask(const Instr& in, BitVec& mask) const {
  std::uint64_t pattern = kAll;
  if (in.act == Act::If) {
    pattern = pattern_for_positions(in.act_set);
  } else if (in.act == Act::Nf) {
    pattern = ~pattern_for_positions(in.act_set);
  }
  for (std::size_t w = 0; w < mask.words(); ++w) mask.word(w) = pattern;
  mask.trim();
}

void Machine::route_cycle_shift(const BitVec& src, bool toward_zero,
                                BitVec& out) const {
  const int Q = cfg_.Q();
  // Positions align with words (Q divides 64 or n < 64), so no cross-word
  // carries: wrap happens inside each Q-bit group.
  if (toward_zero) {
    // S-read: out[p] = src[p+1 mod Q].
    const std::uint64_t m_last =
        periodic_word(Q, [&](int p) { return p == Q - 1; });
    for (std::size_t w = 0; w < src.words(); ++w) {
      const std::uint64_t x = src.word(w);
      out.word(w) = ((x >> 1) & ~m_last) |
                    ((x << (Q - 1)) & m_last);
    }
  } else {
    // P-read: out[p] = src[p-1 mod Q].
    const std::uint64_t m_first = periodic_word(Q, [&](int p) { return p == 0; });
    for (std::size_t w = 0; w < src.words(); ++w) {
      const std::uint64_t x = src.word(w);
      out.word(w) = ((x << 1) & ~m_first) |
                    ((x >> (Q - 1)) & m_first);
    }
  }
  out.trim();
}

void Machine::route_xs(const BitVec& src, BitVec& out) const {
  // out[p] = src[p xor 1].
  const std::uint64_t m_even = periodic_word(2, [](int p) { return p == 0; });
  for (std::size_t w = 0; w < src.words(); ++w) {
    const std::uint64_t x = src.word(w);
    out.word(w) = ((x >> 1) & m_even) | ((x << 1) & ~m_even);
  }
  out.trim();
}

void Machine::route_xp(const BitVec& src, BitVec& out) const {
  // Even positions read their predecessor, odd their successor — the
  // pairing {1,2},{3,4},...,{Q-1,0}.
  const int Q = cfg_.Q();
  const std::uint64_t m_even = periodic_word(2, [](int p) { return p == 0; });
  const std::uint64_t m_first = periodic_word(Q, [&](int p) { return p == 0; });
  const std::uint64_t m_last =
      periodic_word(Q, [&](int p) { return p == Q - 1; });
  for (std::size_t w = 0; w < src.words(); ++w) {
    const std::uint64_t x = src.word(w);
    const std::uint64_t pred = ((x << 1) & ~m_first) | ((x >> (Q - 1)) & m_first);
    const std::uint64_t succ = ((x >> 1) & ~m_last) | ((x << (Q - 1)) & m_last);
    out.word(w) = (pred & m_even) | (succ & ~m_even);
  }
  out.trim();
}

void Machine::route_lateral(const BitVec& src, BitVec& out) const {
  const int Q = cfg_.Q();
  const int h = cfg_.h;
  for (std::size_t w = 0; w < out.words(); ++w) out.word(w) = 0;
  for (int p = 0; p < h; ++p) {
    const std::uint64_t sel = periodic_word(Q, [&](int q) { return q == p; });
    const std::size_t dist = std::size_t{1} << (cfg_.r + p);  // address xor
    if (dist >= 64) {
      const std::size_t word_off = dist >> 6;
      for (std::size_t w = 0; w < src.words(); ++w) {
        out.word(w) |= src.word(w ^ word_off) & sel;
      }
    } else {
      const std::uint64_t m_clear =
          periodic_word(static_cast<int>(2 * dist),
                        [&](int i) { return (static_cast<std::size_t>(i) & dist) == 0; });
      for (std::size_t w = 0; w < src.words(); ++w) {
        const std::uint64_t x = src.word(w);
        const std::uint64_t swapped =
            ((x >> dist) & m_clear) | ((x << dist) & ~m_clear);
        out.word(w) |= swapped & sel;
      }
    }
  }
  if (h < Q) {
    // Positions without a lateral link read their own bit.
    const std::uint64_t self = periodic_word(Q, [&](int q) { return q >= h; });
    for (std::size_t w = 0; w < src.words(); ++w) {
      out.word(w) |= src.word(w) & self;
    }
  }
  out.trim();
}

void Machine::route_ichain(const BitVec& src, BitVec& out) {
  // Global left shift: PE l reads PE l-1; PE 0 consumes one input bit; the
  // bit of PE n-1 leaves through the output pin. The chain moves machine-
  // wide regardless of activation, like the hardware shift path.
  bool carry;
  if (input_.empty()) {
    carry = false;  // an idle input pin reads 0
  } else {
    carry = input_.front();
    input_.pop_front();
  }
  output_.push_back(src.get(n_ - 1));
  for (std::size_t w = 0; w < src.words(); ++w) {
    const std::uint64_t x = src.word(w);
    const bool top = (x >> 63) & 1u;
    out.word(w) = (x << 1) | (carry ? 1u : 0u);
    carry = top;
  }
  out.trim();
}

void Machine::route(const BitVec& src, Nbr nbr, BitVec& out) {
  switch (nbr) {
    case Nbr::None:
      out = src;
      return;
    case Nbr::S:
      route_cycle_shift(src, /*toward_zero=*/true, out);
      return;
    case Nbr::P:
      route_cycle_shift(src, /*toward_zero=*/false, out);
      return;
    case Nbr::L:
      route_lateral(src, out);
      return;
    case Nbr::XS:
      route_xs(src, out);
      return;
    case Nbr::XP:
      route_xp(src, out);
      return;
    case Nbr::I:
      route_ichain(src, out);
      return;
  }
  throw std::logic_error("Machine::route: bad neighbor");
}

void Machine::apply_tt(std::uint8_t tt, const BitVec& f, const BitVec& d,
                       const BitVec& b, BitVec& out) {
  const unsigned lo = tt & 0xF;        // B = 0 plane
  const unsigned hi = (tt >> 4) & 0xF; // B = 1 plane
  for (std::size_t w = 0; w < out.words(); ++w) {
    const std::uint64_t fw = f.word(w);
    const std::uint64_t dw = d.word(w);
    const std::uint64_t bw = b.word(w);
    out.word(w) = (bw & eval2(hi, fw, dw)) | (~bw & eval2(lo, fw, dw));
  }
  out.trim();
}

void Machine::exec(const Instr& in) {
  if (in.src_f.kind == Reg::Kind::B || in.src_f.kind == Reg::Kind::E ||
      in.src_d.kind == Reg::Kind::B || in.src_d.kind == Reg::Kind::E) {
    throw std::invalid_argument(
        "Machine::exec: F/D must be A or R[j] (B is the implicit third "
        "input; E is not readable as an operand)");
  }
  if (in.dest.kind == Reg::Kind::B) {
    throw std::invalid_argument(
        "Machine::exec: B is always the second target, not the first");
  }
  if (in.src_f.kind == Reg::Kind::R && in.src_f.index >= r_.size()) {
    throw std::out_of_range("Machine::exec: F register index");
  }
  if (in.src_d.kind == Reg::Kind::R && in.src_d.index >= r_.size()) {
    throw std::out_of_range("Machine::exec: D register index");
  }
  if (in.dest.kind == Reg::Kind::R && in.dest.index >= r_.size()) {
    throw std::out_of_range("Machine::exec: dest register index");
  }

  const BitVec& f = resolve(in.src_f);
  route(resolve(in.src_d), in.d_nbr, scratch_d_);

  apply_tt(in.f, f, scratch_d_, b_, scratch_f_);  // dest value
  apply_tt(in.g, f, scratch_d_, b_, scratch_g_);  // new B value

  activation_mask(in, scratch_mask_);

  // Writes: dest and B are gated by activation AND the enable register —
  // except writes to E itself, which ignore the enable gate (the E register
  // is always enabled). Gating uses E's pre-instruction value.
  BitVec& dest = resolve_mut(in.dest);
  const bool dest_is_e = in.dest.kind == Reg::Kind::E;
  for (std::size_t w = 0; w < dest.words(); ++w) {
    const std::uint64_t act = scratch_mask_.word(w);
    const std::uint64_t gate_dest = dest_is_e ? act : (act & e_.word(w));
    const std::uint64_t gate_b = act & e_.word(w);
    const std::uint64_t newb =
        (scratch_g_.word(w) & gate_b) | (b_.word(w) & ~gate_b);
    dest.word(w) =
        (scratch_f_.word(w) & gate_dest) | (dest.word(w) & ~gate_dest);
    b_.word(w) = newb;
  }
  dest.trim();
  b_.trim();
  ++instr_count_;
  if (trace_ != nullptr) {
    (*trace_) << instr_count_ << ": " << in.to_string() << '\n';
  }
  if (recorder_ != nullptr) recorder_->push_back(in);
}

std::string Machine::dump_row(Reg reg) const {
  const BitVec& row = resolve(reg);
  std::string s;
  s.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) s += row.get(i) ? '1' : '0';
  return s;
}

void Machine::run(const std::vector<Instr>& prog) {
  for (const auto& in : prog) exec(in);
}

void Machine::push_input_bits(const std::vector<bool>& bits) {
  for (bool b : bits) input_.push_back(b);
}

bool Machine::peek(Reg reg, std::size_t pe) const {
  return resolve(reg).get(pe);
}

void Machine::poke(Reg reg, std::size_t pe, bool v) {
  resolve_mut(reg).set(pe, v);
}

const BitVec& Machine::row(Reg reg) const { return resolve(reg); }
BitVec& Machine::row(Reg reg) { return resolve_mut(reg); }

std::uint64_t Machine::peek_value(int base, int bits, std::size_t pe) const {
  std::uint64_t v = 0;
  for (int t = 0; t < bits; ++t) {
    if (r_.at(static_cast<std::size_t>(base + t)).get(pe)) {
      v |= std::uint64_t{1} << t;
    }
  }
  return v;
}

void Machine::poke_value(int base, int bits, std::size_t pe, std::uint64_t v) {
  for (int t = 0; t < bits; ++t) {
    r_.at(static_cast<std::size_t>(base + t)).set(pe, ((v >> t) & 1u) != 0);
  }
}

}  // namespace ttp::bvm
