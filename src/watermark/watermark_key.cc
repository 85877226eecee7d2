#include "watermark/watermark_key.h"

#include <cassert>

namespace privmark {

namespace {

// Assembles "pos:" ident ":" column into `buf`.
void BuildPositionMessage(std::string_view ident, std::string_view column,
                          std::string* buf) {
  buf->clear();
  WatermarkHasher::AppendPositionMessage(ident, column, buf);
}

// Assembles "perm:" ident ":" column ":" depth into `buf`.
void BuildPermutationMessage(std::string_view ident, std::string_view column,
                             int depth, std::string* buf) {
  buf->clear();
  buf->append("perm:");
  buf->append(ident.data(), ident.size());
  buf->push_back(':');
  buf->append(column.data(), column.size());
  buf->push_back(':');
  buf->append(std::to_string(depth));
}

}  // namespace

SelectionRule::SelectionRule(uint64_t eta) {
  assert(eta > 0);
  if (eta == 0) return;
  shift_ = static_cast<unsigned>(__builtin_ctzll(eta));
  const uint64_t odd = eta >> shift_;
  // Newton's iteration doubles the correct low bits: odd * odd == 1 mod 8
  // gives 3, and five steps reach 96 >= 64.
  inverse_ = odd;
  for (int i = 0; i < 5; ++i) inverse_ *= 2 - odd * inverse_;
  limit_ = ~uint64_t{0} / eta;
}

bool IsTupleSelected(const WatermarkKey& key, HashAlgorithm algo,
                     std::string_view ident) {
  return SelectionRule(key.eta).Selects(KeyedHash64(algo, key.k1, ident));
}

size_t WmdPosition(const WatermarkKey& key, HashAlgorithm algo,
                   std::string_view ident, std::string_view column,
                   size_t wmd_size) {
  assert(wmd_size > 0);
  std::string msg;
  BuildPositionMessage(ident, column, &msg);
  return static_cast<size_t>(KeyedHash64(algo, key.k2, msg) % wmd_size);
}

size_t PermutationIndex(const WatermarkKey& key, HashAlgorithm algo,
                        std::string_view ident, std::string_view column,
                        int depth, size_t set_size) {
  assert(set_size > 0);
  std::string msg;
  BuildPermutationMessage(ident, column, depth, &msg);
  return static_cast<size_t>(KeyedHash64(algo, key.k2, msg) % set_size);
}

void WatermarkHasher::AppendPositionMessage(std::string_view ident,
                                            std::string_view column,
                                            std::string* arena) {
  arena->append("pos:");
  arena->append(ident.data(), ident.size());
  arena->push_back(':');
  arena->append(column.data(), column.size());
}

void WatermarkHasher::SelectBlock(const std::string_view* idents, size_t n,
                                  uint8_t* selected) {
  assert(n <= kBlockRows);
  uint64_t hashes[kBlockRows];
  KeyedHash64Batch(algo_, key_->k1, idents, n, hashes);
  for (size_t i = 0; i < n; ++i) {
    selected[i] = selection_.Selects(hashes[i]) ? 1 : 0;
  }
}

void WatermarkHasher::PositionBlock(const std::string_view* messages,
                                    size_t n, size_t wmd_size, size_t* out) {
  assert(wmd_size > 0);
  uint64_t hashes[kBlockRows];
  for (size_t base = 0; base < n; base += kBlockRows) {
    const size_t m = n - base < kBlockRows ? n - base : kBlockRows;
    KeyedHash64Batch(algo_, key_->k2, messages + base, m, hashes);
    for (size_t i = 0; i < m; ++i) {
      out[base + i] = static_cast<size_t>(hashes[i] % wmd_size);
    }
  }
}

size_t WatermarkHasher::PermutationIndex(std::string_view ident,
                                         std::string_view column, int depth,
                                         size_t set_size) {
  assert(set_size > 0);
  BuildPermutationMessage(ident, column, depth, &buf_);
  return static_cast<size_t>(KeyedHash64(algo_, key_->k2, buf_) % set_size);
}

}  // namespace privmark
