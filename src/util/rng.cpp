#include "util/rng.h"

#include "util/bytes.h"

namespace rbcast::util {

std::uint64_t RngFactory::mix(std::uint64_t seed, std::string_view purpose,
                              std::int64_t index) {
  std::uint64_t h = kFnv1aOffset ^ seed;
  h = fnv1a(h, purpose.data(), purpose.size());
  h = fnv1a(h, &index, sizeof(index));
  return splitmix64(h);
}

}  // namespace rbcast::util
