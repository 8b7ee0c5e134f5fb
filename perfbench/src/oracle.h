// The benchmark's reference answers and result checks.
//
// The oracle never calls into rtree/: it keeps the generated dataset as
// a flat array sorted by min_x and answers a query by scanning the slice
// of that array whose min_x can still reach the query (a plain sweep,
// no tree), plus a linear scan over every acked insert. Checks compare
// a search's ids against it and test properties every result must have.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geo/rect.h"
#include "rtree/node.h"

namespace perfbench {

/// True when the closed rectangles share a point. Written out here so
/// the checks do not rely on the geometry code under test.
inline bool Overlaps(const catfish::geo::Rect& a,
                     const catfish::geo::Rect& b) noexcept {
  return a.min_x <= b.max_x && b.min_x <= a.max_x && a.min_y <= b.max_y &&
         b.min_y <= a.max_y;
}

/// An acked insert with the global order stamp taken right after its ack.
struct AckedInsert {
  catfish::rtree::Entry entry;
  uint64_t stamp = 0;
};

class Oracle {
 public:
  explicit Oracle(std::span<const catfish::rtree::Entry> base);

  /// Adds acked inserts; a search that started at stamp S must see every
  /// insert with stamp < S and may see any other.
  void AddInserts(std::span<const AckedInsert> inserts);

  size_t size() const noexcept { return base_.size() + inserts_.size(); }

  /// Ids of base entries intersecting `q`, plus acked inserts with
  /// stamp < `before` (`must`) and those with stamp >= `before` (`may`).
  /// Both outputs sorted.
  void Answer(const catfish::geo::Rect& q, uint64_t before,
              std::vector<uint64_t>& must, std::vector<uint64_t>& may) const;

 private:
  std::vector<catfish::rtree::Entry> base_;  ///< sorted by mbr.min_x
  double base_max_width_ = 0.0;
  std::vector<AckedInsert> inserts_;
};

/// Property checks every search result must pass: each entry intersects
/// the query, and no id appears twice. `scratch` is reused for the ids.
/// Returns an empty string when the result passes.
std::string CheckProperties(const catfish::geo::Rect& q,
                            std::span<const catfish::rtree::Entry> result,
                            std::vector<uint64_t>& scratch);

/// Compares a result's sorted ids with the oracle: every `must` id is
/// present, and every other id is in `may`. Empty string = pass.
std::string CheckAgainstOracle(std::span<const uint64_t> got_sorted,
                               std::span<const uint64_t> must,
                               std::span<const uint64_t> may);

}  // namespace perfbench
