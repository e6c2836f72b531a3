#include "src/cluster/encoder.h"

#include <limits>

namespace dbx {

namespace {

// Open-addressing index that numbers the distinct keys of a key array
// 0, 1, 2, ... in order of first appearance. Key i is the `words` words at
// keys + i * words. A probe compares whole keys, so two different tuples
// never share an id whatever their hashes.
class KeyIndex {
 public:
  KeyIndex(const uint64_t* keys, size_t words)
      : keys_(keys), words_(words), slots_(64, kEmpty) {}

  // Id of key i; makes it the next id when no earlier key equals it.
  uint32_t FindOrInsert(size_t i) {
    size_t s = Probe(i);
    if (slots_[s] != kEmpty) return slots_[s];
    const uint32_t id = static_cast<uint32_t>(first_.size());
    slots_[s] = id;
    first_.push_back(i);
    if (2 * first_.size() > slots_.size()) Grow();
    return id;
  }

  // Index of the first key of each id.
  const std::vector<size_t>& first() const { return first_; }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  // The slot holding key i's id, or the empty slot where it belongs.
  size_t Probe(size_t i) const {
    const uint64_t* key = keys_ + i * words_;
    uint64_t h = 0;
    for (size_t w = 0; w < words_; ++w) {  // SplitMix64 finalizer per word
      h ^= key[w] + 0x9E3779B97F4A7C15ULL;
      h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
      h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
      h ^= h >> 31;
    }
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>(h) & mask;
    while (slots_[s] != kEmpty && !Equal(key, keys_ + first_[slots_[s]] * words_)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  // A plain loop: std::equal would call memcmp for each one-word compare.
  bool Equal(const uint64_t* a, const uint64_t* b) const {
    for (size_t w = 0; w < words_; ++w) {
      if (a[w] != b[w]) return false;
    }
    return true;
  }

  void Grow() {
    slots_.assign(slots_.size() * 2, kEmpty);
    for (size_t id = 0; id < first_.size(); ++id) {
      slots_[Probe(first_[id])] = static_cast<uint32_t>(id);
    }
  }

  const uint64_t* keys_;
  size_t words_;
  std::vector<uint32_t> slots_;  // ids; power-of-two size, at most half full
  std::vector<size_t> first_;    // per id: index of its first key
};

}  // namespace

Result<OneHotEncoder> OneHotEncoder::Plan(
    const DiscretizedTable& dt, const std::vector<size_t>& attr_indices) {
  OneHotEncoder enc;
  uint64_t word_span = 1;  // product of the radices packed into the last word
  for (size_t idx : attr_indices) {
    if (idx >= dt.num_attrs()) {
      return Status::OutOfRange("encoder attribute index out of range");
    }
    size_t card = dt.attr(idx).cardinality();
    if (card == 0) continue;  // all-null attribute carries no signal
    enc.attrs_.push_back(idx);
    enc.offsets_.push_back(enc.dims_);
    enc.cards_.push_back(card);
    enc.dims_ += card;
    const uint64_t radix = static_cast<uint64_t>(card) + 1;
    if (enc.key_words_ == 0 ||
        word_span > std::numeric_limits<uint64_t>::max() / radix) {
      ++enc.key_words_;
      word_span = 1;
    }
    enc.key_word_.push_back(enc.key_words_ - 1);
    enc.key_scale_.push_back(word_span);
    word_span *= radix;
  }
  if (enc.dims_ == 0) {
    return Status::InvalidArgument("no encodable attributes (all null/empty)");
  }
  return enc;
}

EncodedMatrix OneHotEncoder::Encode(
    const DiscretizedTable& dt, const std::vector<size_t>& row_positions) const {
  const size_t n = row_positions.size();
  // Every row's key, built one attribute column at a time.
  std::vector<uint64_t> keys(n * key_words_, 0);
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const int32_t* codes = dt.attr(attrs_[a]).codes.data();
    const size_t card = cards_[a];
    const uint64_t scale = key_scale_[a];
    uint64_t* key = keys.data() + key_word_[a];
    for (size_t p = 0; p < n; ++p) {
      const int32_t code = codes[row_positions[p]];
      if (code >= 0 && static_cast<size_t>(code) < card) {
        key[p * key_words_] += (static_cast<uint64_t>(code) + 1) * scale;
      }
    }
  }
  EncodedMatrix m;
  m.num_points = n;
  m.dims = dims_;
  m.point_of.resize(n);
  KeyIndex index(keys.data(), key_words_);
  for (size_t p = 0; p < n; ++p) {
    const uint32_t id = index.FindOrInsert(p);
    if (id == m.weight.size()) m.weight.push_back(0);
    ++m.weight[id];
    m.point_of[p] = id;
  }
  // One dense vector per distinct point, encoded from its first row.
  m.num_distinct = m.weight.size();
  m.data.assign(m.num_distinct * dims_, 0.0);
  for (size_t id = 0; id < m.num_distinct; ++id) {
    const size_t row = row_positions[index.first()[id]];
    double* out = m.data.data() + id * dims_;
    for (size_t a = 0; a < attrs_.size(); ++a) {
      const int32_t code = dt.attr(attrs_[a]).codes[row];
      if (code >= 0 && static_cast<size_t>(code) < cards_[a]) {
        out[offsets_[a] + static_cast<size_t>(code)] = 1.0;
      }
    }
  }
  return m;
}

}  // namespace dbx
