#include "oracle.h"

#include <algorithm>
#include <string>

namespace perfbench {

using catfish::geo::Rect;
using catfish::rtree::Entry;

Oracle::Oracle(std::span<const Entry> base) : base_(base.begin(), base.end()) {
  std::sort(base_.begin(), base_.end(), [](const Entry& a, const Entry& b) {
    return a.mbr.min_x < b.mbr.min_x;
  });
  for (const Entry& e : base_) {
    base_max_width_ = std::max(base_max_width_, e.mbr.max_x - e.mbr.min_x);
  }
}

void Oracle::AddInserts(std::span<const AckedInsert> inserts) {
  inserts_.insert(inserts_.end(), inserts.begin(), inserts.end());
}

void Oracle::Answer(const Rect& q, uint64_t before, std::vector<uint64_t>& must,
                    std::vector<uint64_t>& may) const {
  must.clear();
  may.clear();
  // An entry can only reach q when min_x lies in
  // [q.min_x - widest entry, q.max_x]; everything in that slice is tested.
  const auto lo = std::lower_bound(
      base_.begin(), base_.end(), q.min_x - base_max_width_,
      [](const Entry& e, double x) { return e.mbr.min_x < x; });
  for (auto it = lo; it != base_.end() && it->mbr.min_x <= q.max_x; ++it) {
    if (Overlaps(it->mbr, q)) must.push_back(it->id);
  }
  for (const AckedInsert& a : inserts_) {
    if (!Overlaps(a.entry.mbr, q)) continue;
    (a.stamp < before ? must : may).push_back(a.entry.id);
  }
  std::sort(must.begin(), must.end());
  std::sort(may.begin(), may.end());
}

std::string CheckProperties(const Rect& q, std::span<const Entry> result,
                            std::vector<uint64_t>& scratch) {
  scratch.clear();
  for (const Entry& e : result) {
    if (!Overlaps(e.mbr, q)) {
      return "entry " + std::to_string(e.id) + " does not intersect the query";
    }
    scratch.push_back(e.id);
  }
  std::sort(scratch.begin(), scratch.end());
  const auto dup = std::adjacent_find(scratch.begin(), scratch.end());
  if (dup != scratch.end()) {
    return "id " + std::to_string(*dup) + " appears twice";
  }
  return {};
}

std::string CheckAgainstOracle(std::span<const uint64_t> got_sorted,
                               std::span<const uint64_t> must,
                               std::span<const uint64_t> may) {
  size_t g = 0;
  for (const uint64_t id : must) {
    while (g < got_sorted.size() && got_sorted[g] < id) {
      if (!std::binary_search(may.begin(), may.end(), got_sorted[g])) {
        return "unexpected id " + std::to_string(got_sorted[g]);
      }
      ++g;
    }
    if (g == got_sorted.size() || got_sorted[g] != id) {
      return "missing id " + std::to_string(id);
    }
    ++g;
  }
  for (; g < got_sorted.size(); ++g) {
    if (!std::binary_search(may.begin(), may.end(), got_sorted[g])) {
      return "unexpected id " + std::to_string(got_sorted[g]);
    }
  }
  return {};
}

}  // namespace perfbench
