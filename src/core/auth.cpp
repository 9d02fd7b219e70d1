#include "core/auth.h"

#include "util/bytes.h"

namespace rbcast::core {

using util::splitmix64;

std::uint64_t payload_digest(std::string_view body) {
  return util::fnv1a(util::kFnv1aOffset, body.data(), body.size());
}

std::uint64_t auth_mac(std::uint64_t secret, HostId source, util::Seq seq,
                       std::uint64_t digest) {
  // Derive the per-source key, then chain the bound fields through the
  // mixer. Every field feeds a full mixing round, so truncating or
  // reordering fields cannot collide trivially.
  std::uint64_t k = splitmix64(secret ^ 0xa076bc9f1ull);
  k = splitmix64(k ^ static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(source.value)));
  k = splitmix64(k ^ seq);
  k = splitmix64(k ^ digest);
  return k;
}

AuthTag make_auth_tag(std::uint64_t secret, HostId source, util::Seq seq,
                      std::string_view body) {
  AuthTag t;
  t.digest = payload_digest(body);
  t.tag = auth_mac(secret, source, seq, t.digest);
  return t;
}

bool verify_auth_tag(std::uint64_t secret, HostId source, util::Seq seq,
                     std::string_view body, const AuthTag& t) {
  return t.digest == payload_digest(body) &&
         t.tag == auth_mac(secret, source, seq, t.digest);
}

}  // namespace rbcast::core
