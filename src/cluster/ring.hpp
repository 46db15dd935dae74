// Consistent-hash ring over ttp_serve backends.
//
// Each backend contributes `vnodes` points on a 64-bit ring, hashed from
// its *name* ("host:port#<vnode>") through the same svc::hash128 the
// canonical content key uses. A request lands at the first point clockwise
// from its CanonKey position; walking further yields distinct fallback
// replicas for retry.
//
// Properties the tests (tests/test_cluster_ring.cpp) pin down:
//
//   * Placement depends only on backend names, never on list order or
//     process identity — two routers configured with the same --backend
//     set (in any order) route every key identically, and a restarted
//     router keeps the placement of its predecessor.
//   * Removing one of n backends remaps only the keys that backend owned —
//     an expected 1/n of the keyspace — because every other backend's
//     points stay exactly where they were. (A modulo table would remap
//     nearly everything.)
//   * With enough virtual nodes the per-backend keyspace share
//     concentrates near 1/n (the tests assert ±15% at 8 backends).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/canon.hpp"

namespace ttp::cluster {

class Ring {
 public:
  /// Builds the ring. Backend names are kept in the given order (indices
  /// returned by primary()/replicas() refer to it); placement itself is
  /// order-independent. vnodes is clamped to >= 1.
  explicit Ring(std::vector<std::string> backends, int vnodes = 128);

  std::size_t size() const noexcept { return backends_.size(); }
  const std::string& backend(std::size_t i) const { return backends_[i]; }
  const std::vector<std::string>& backends() const noexcept {
    return backends_;
  }
  int vnodes() const noexcept { return vnodes_; }

  /// Ring position of a canonical content key.
  static std::uint64_t position(const svc::CanonKey& key) noexcept {
    // hi and lo are independent mixes; fold both so the ring position is
    // not correlated with the cache's shard selector (which uses hi ^ lo
    // through CanonKeyHash differently).
    return key.hi ^ (key.lo * 0x9E3779B97F4A7C15ull);
  }

  /// Index of the backend owning `key` (first point clockwise).
  std::size_t primary(const svc::CanonKey& key) const;

  /// Up to `want` distinct backend indices in ring-walk order, primary
  /// first. Returns fewer only when the ring has fewer backends.
  std::vector<std::size_t> replicas(const svc::CanonKey& key,
                                    std::size_t want) const;

 private:
  struct Point {
    std::uint64_t hash;
    std::uint32_t backend;
  };

  /// Index into points_ of the first point clockwise from `pos`.
  std::size_t first_point(std::uint64_t pos) const;

  std::vector<std::string> backends_;
  int vnodes_;
  std::vector<Point> points_;  ///< Sorted by (hash, backend name).
};

}  // namespace ttp::cluster
