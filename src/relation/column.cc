#include "src/relation/column.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dbx {

namespace {

// Unsigned key whose order is IEEE-754 totalOrder on non-NaN doubles:
// negative values flip every bit, the others flip only the sign bit.
uint64_t TotalOrderKey(uint64_t bits) {
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

}  // namespace

NumericDomain NumericDomain::Build(const std::vector<double>& nums) {
  NumericDomain d;
  d.ranks.resize(nums.size());

  // 1. First-appearance ids, hashed on each value's bit pattern so the two
  //    zeros stay apart: open addressing with linear probing, grown at half
  //    load. Slots hold ids into `first_bits`.
  std::vector<uint64_t> first_bits;
  std::vector<int32_t> slots(64, kNullCode);
  int shift = 64 - 6;  // log2(slots.size()) top bits of the product
  auto home = [&](uint64_t bits) -> size_t {
    return (bits * 0x9E3779B97F4A7C15ull) >> shift;
  };
  auto find_slot = [&](uint64_t bits) {
    size_t s = home(bits);
    while (slots[s] != kNullCode && first_bits[slots[s]] != bits) {
      s = (s + 1) & (slots.size() - 1);
    }
    return s;
  };
  for (size_t row = 0; row < nums.size(); ++row) {
    if (std::isnan(nums[row])) {
      d.ranks[row] = kNullCode;
      continue;
    }
    const uint64_t bits = std::bit_cast<uint64_t>(nums[row]);
    const size_t s = find_slot(bits);
    int32_t id = slots[s];
    if (id == kNullCode) {
      id = static_cast<int32_t>(first_bits.size());
      first_bits.push_back(bits);
      slots[s] = id;
      if (2 * first_bits.size() > slots.size()) {
        slots.assign(2 * slots.size(), kNullCode);
        --shift;
        for (size_t i = 0; i < first_bits.size(); ++i) {
          slots[find_slot(first_bits[i])] = static_cast<int32_t>(i);
        }
      }
    }
    d.ranks[row] = id;
  }

  // 2. Sort the distinct values (keys are distinct, so the order is total).
  std::vector<std::pair<uint64_t, int32_t>> order(first_bits.size());
  for (size_t id = 0; id < first_bits.size(); ++id) {
    order[id] = {TotalOrderKey(first_bits[id]), static_cast<int32_t>(id)};
  }
  std::sort(order.begin(), order.end());
  std::vector<int32_t> rank_of(order.size());
  d.values.resize(order.size());
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const int32_t id = order[rank].second;
    d.values[rank] = std::bit_cast<double>(first_bits[id]);
    rank_of[id] = static_cast<int32_t>(rank);
  }

  // 3. Remap each row's id to its rank.
  for (int32_t& code : d.ranks) {
    if (code != kNullCode) code = rank_of[code];
  }
  return d;
}

std::shared_ptr<const NumericDomain> Column::Domain() const {
  MutexLock lock(domain_mu_);
  if (domain_ == nullptr || domain_->ranks.size() != nums_.size()) {
    domain_ = std::make_shared<const NumericDomain>(NumericDomain::Build(nums_));
  }
  return domain_;
}

}  // namespace dbx
