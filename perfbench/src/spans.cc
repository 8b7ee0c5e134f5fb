#include "spans.h"

#include <cstdio>

namespace perfbench {

void SpanLog::Merge(const std::string& thread, SpanBuffer& buf) {
  const std::scoped_lock lock(mu_);
  parts_.push_back({thread, std::move(buf.spans())});
}

size_t SpanLog::size() const {
  const std::scoped_lock lock(mu_);
  size_t n = 0;
  for (const Part& p : parts_) n += p.spans.size();
  return n;
}

bool SpanLog::Write(const std::string& path) const {
  const std::scoped_lock lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Part& p : parts_) {
    for (const Span& s : p.spans) {
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"name\":\"%s\",\"trace_id\":%llu,"
                   "\"span\":%u,\"parent\":%u,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   p.thread.c_str(), s.name,
                   static_cast<unsigned long long>(s.trace_id), s.id,
                   s.parent, static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
