#include "src/stats/frequency.h"

#include <algorithm>

namespace dbx {

FrequencyTable FrequencyTable::FromCodes(const std::vector<int32_t>& codes,
                                         size_t cardinality,
                                         const std::vector<std::string>& labels) {
  FrequencyTable t;
  t.counts_.assign(cardinality, 0);
  for (int32_t c : codes) {
    if (c < 0) {
      ++t.null_count_;
    } else if (static_cast<size_t>(c) < cardinality) {
      ++t.counts_[c];
      ++t.total_;
    }
  }
  t.sorted_.reserve(cardinality);
  for (size_t c = 0; c < cardinality; ++c) {
    FrequencyEntry e;
    e.code = static_cast<int32_t>(c);
    e.label = c < labels.size() ? labels[c] : std::string();
    e.count = t.counts_[c];
    t.sorted_.push_back(std::move(e));
  }
  std::stable_sort(t.sorted_.begin(), t.sorted_.end(),
                   [](const FrequencyEntry& a, const FrequencyEntry& b) {
                     if (a.count != b.count) return a.count > b.count;
                     return a.code < b.code;
                   });
  return t;
}

std::vector<double> FrequencyTable::AsVector() const {
  std::vector<double> v(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    v[i] = static_cast<double>(counts_[i]);
  }
  return v;
}

}  // namespace dbx
