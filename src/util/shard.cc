#include "src/util/shard.h"

#include <algorithm>

namespace dbx {

std::vector<ShardRange> MakeShardRanges(size_t rows, size_t count) {
  const size_t s = std::clamp<size_t>(count, 1, std::max<size_t>(1, rows));
  std::vector<ShardRange> ranges;
  ranges.reserve(s);
  size_t base = rows / s;
  size_t extra = rows % s;  // the first `extra` ranges take one more row
  size_t begin = 0;
  for (size_t i = 0; i < s; ++i) {
    size_t len = base + (i < extra ? 1 : 0);
    ranges.push_back({begin, begin + len});
    begin += len;
  }
  return ranges;
}

}  // namespace dbx
