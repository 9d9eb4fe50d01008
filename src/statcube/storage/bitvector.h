// Packed bit vector and fixed-width bit-packed integer vector. These are the
// building blocks of bit-transposed files [WL+85] (paper §6.1, Figure 19):
// a category attribute with k distinct values needs only ceil(log2(k)) bits
// per row, and each bit position can be stored as its own "bit-transposed
// file" (one BitVector per bit plane).

#ifndef STATCUBE_STORAGE_BITVECTOR_H_
#define STATCUBE_STORAGE_BITVECTOR_H_

#include <cstdint>
#include <cstddef>
#include <vector>

namespace statcube {

/// A growable vector of bits, 64 per word.
class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(size_t n, bool value = false) { Resize(n, value); }

  void Resize(size_t n, bool value = false) {
    size_ = n;
    words_.assign((n + 63) / 64, value ? ~uint64_t{0} : 0);
    TrimLastWord();
  }

  void PushBack(bool bit) {
    if (size_ % 64 == 0) words_.push_back(0);
    if (bit) words_[size_ / 64] |= uint64_t{1} << (size_ % 64);
    ++size_;
  }

  bool Get(size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  void Set(size_t i, bool bit) {
    uint64_t mask = uint64_t{1} << (i % 64);
    if (bit)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  /// ORs `bits` into word `w` (bits i with i / 64 == w, bit i % 64); bits
  /// past `size()` must be zero.
  void OrWord(size_t w, uint64_t bits) { words_[w] |= bits; }

  size_t size() const { return size_; }

  /// Number of set bits.
  size_t PopCount() const {
    size_t c = 0;
    for (uint64_t w : words_) c += static_cast<size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Number of set bits in [0, i).
  size_t Rank(size_t i) const {
    size_t c = 0, full = i / 64;
    for (size_t w = 0; w < full; ++w)
      c += static_cast<size_t>(__builtin_popcountll(words_[w]));
    size_t rem = i % 64;
    if (rem) {
      uint64_t mask = (uint64_t{1} << rem) - 1;
      c += static_cast<size_t>(__builtin_popcountll(words_[full] & mask));
    }
    return c;
  }

  /// Bitwise AND with another vector of the same size (in place).
  void AndWith(const BitVector& other) {
    for (size_t i = 0; i < words_.size() && i < other.words_.size(); ++i)
      words_[i] &= other.words_[i];
  }

  /// Bitwise OR with another vector of the same size (in place).
  void OrWith(const BitVector& other) {
    for (size_t i = 0; i < words_.size() && i < other.words_.size(); ++i)
      words_[i] |= other.words_[i];
  }

  /// Flips every bit (in place); bits past `size()` stay zero.
  void Negate() {
    for (uint64_t& w : words_) w = ~w;
    TrimLastWord();
  }

  /// Storage footprint in bytes.
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

  /// Direct word access for fast scans.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  void TrimLastWord() {
    size_t rem = size_ % 64;
    if (rem && !words_.empty()) words_.back() &= (uint64_t{1} << rem) - 1;
  }

  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// A vector of unsigned integers packed at a fixed bit width.
class PackedIntVector {
 public:
  explicit PackedIntVector(unsigned bits_per_value = 1)
      : bits_(bits_per_value == 0 ? 1 : bits_per_value) {}

  /// Minimum width able to represent values in [0, n).
  static unsigned BitsFor(uint64_t n) {
    if (n <= 1) return 1;
    unsigned b = 0;
    uint64_t max = n - 1;
    while (max) {
      ++b;
      max >>= 1;
    }
    return b;
  }

  void PushBack(uint64_t v) {
    size_t bit = size_ * bits_;
    size_t need_words = (bit + bits_ + 63) / 64;
    if (words_.size() < need_words) words_.resize(need_words, 0);
    size_t word = bit / 64, off = bit % 64;
    words_[word] |= v << off;
    if (off + bits_ > 64) words_[word + 1] |= v >> (64 - off);
    ++size_;
  }

  uint64_t Get(size_t i) const {
    size_t bit = i * bits_;
    size_t word = bit / 64, off = bit % 64;
    uint64_t v = words_[word] >> off;
    if (off + bits_ > 64) v |= words_[word + 1] << (64 - off);
    uint64_t mask = bits_ == 64 ? ~uint64_t{0} : (uint64_t{1} << bits_) - 1;
    return v & mask;
  }

  size_t size() const { return size_; }
  unsigned bits_per_value() const { return bits_; }
  size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }

 private:
  unsigned bits_;
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

}  // namespace statcube

#endif  // STATCUBE_STORAGE_BITVECTOR_H_
