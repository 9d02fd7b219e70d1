// Byte toolkit: the one little-endian codec and the one pair of byte
// hashes in the tree.
//
// Every wire format (SeqSet, protocol bodies, transport frames and batch
// containers; PROTOCOL.md §12) writes with put_u* and reads with
// ByteReader, and every byte hash (payload digests, EventLog digests, RNG
// stream seeds, auth tags) is built from fnv1a() and splitmix64(). Those
// outputs are pinned — on the wire, in tests/data/determinism_digests.txt
// and in tests/wire_golden_test.cpp — so nothing here may change a bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace rbcast::util {

// --- writing -------------------------------------------------------------

// Appends `v` as sizeof(T) little-endian bytes.
template <typename T>
void put_le(std::string& out, T v) {
  static_assert(std::is_unsigned_v<T>);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

inline void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }

// --- reading -------------------------------------------------------------

// Bounds-checked little-endian reads over an untrusted buffer. A take_*
// that would run past the end returns false and consumes nothing, so
// decoders built on it are total: short input is a failed decode, never
// an out-of-bounds read. Borrows the buffer; it must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool take_u8(std::uint8_t& v) { return take_le(v); }
  [[nodiscard]] bool take_u16(std::uint16_t& v) { return take_le(v); }
  [[nodiscard]] bool take_u32(std::uint32_t& v) { return take_le(v); }
  [[nodiscard]] bool take_u64(std::uint64_t& v) { return take_le(v); }

  // The next `n` bytes, as a view into the buffer.
  [[nodiscard]] bool take_view(std::string_view& out, std::size_t n) {
    if (n > remaining()) return false;
    out = bytes_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] bool take_le(T& v) {
    if (sizeof(T) > remaining()) return false;
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      const auto byte =
          static_cast<T>(static_cast<std::uint8_t>(bytes_[pos_ + i]));
      out = static_cast<T>(out | (byte << (8 * i)));
    }
    pos_ += sizeof(T);
    v = out;
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_{0};
};

// --- hashing -------------------------------------------------------------

// 64-bit FNV-1a offset basis: the starting `h` for a fresh hash.
inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

// Folds `len` bytes into the running 64-bit FNV-1a hash `h`. Chaining
// calls hashes the concatenation of their bytes.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                                         std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;  // FNV-1a 64-bit prime
  }
  return h;
}

// splitmix64's output function: spreads low-entropy inputs (small seeds,
// ids, FNV states) over all 64 bits.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rbcast::util
