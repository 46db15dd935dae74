// Boolean Vector Machine configuration (paper §2).
//
// The BVM is a bit-serial SIMD machine whose PEs form a cube-connected-
// cycles network: cycles of length Q = 2^r; PE (i, j) is PE number i·Q + j
// (cycle i, position j). Within the cycle it links to its successor and
// predecessor; positions j < h carry a lateral link to (i xor 2^j, j). The
// paper's machine is the complete CCC (h = Q, 2^Q cycles, 3p/2 links); we
// additionally allow h < Q so intermediate machine sizes exist.
//
// Each PE owns one bit of every register row: registers A, B, the enable
// register E, and L = 256 general registers R[0..L-1].
#pragma once

#include <cstddef>
#include <stdexcept>

namespace ttp::bvm {

struct BvmConfig {
  int r = 2;    ///< log2 of the cycle length Q.
  int h = 4;    ///< lateral dimensions, 1 <= h <= Q (h == Q: paper machine).
  int regs = 256;  ///< L, the paper's register count.

  int Q() const noexcept { return 1 << r; }
  int dims() const noexcept { return r + h; }
  std::size_t num_pes() const noexcept { return std::size_t{1} << dims(); }
  std::size_t num_cycles() const noexcept { return std::size_t{1} << h; }

  /// The paper's complete machine for a given cycle-size exponent:
  /// r=2 -> 64 PEs (Fig. 3), r=3 -> 2^11, r=4 -> 2^20 ("currently
  /// implementable"), r=5 -> 2^37 (beyond the paper's 2^30 horizon).
  static BvmConfig complete(int r) { return BvmConfig{r, 1 << r, 256}; }

  /// Smallest config with at least `dims` hypercube dimensions; rejects
  /// shapes the simulator cannot host (dims > 26, i.e. > 2^26 PEs).
  static BvmConfig for_dims(int dims) {
    for (int r = 1; r < dims; ++r) {
      if (dims - r <= (1 << r)) {
        const BvmConfig cfg{r, dims - r, 256};
        cfg.check();
        return cfg;
      }
    }
    throw std::invalid_argument("BvmConfig::for_dims: dims too small/large");
  }

  void check() const {
    if (r < 1 || h < 1 || h > Q() || dims() > 26 || regs < 8 || regs > 4096) {
      throw std::invalid_argument("BvmConfig: invalid parameters");
    }
  }
};

}  // namespace ttp::bvm
