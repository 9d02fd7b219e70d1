#include "core/messages.h"

#include <sanitizer/asan_interface.h>

#include <cstdint>
#include <new>
#include <string_view>
#include <utility>

#include "util/bytes.h"

namespace rbcast::core {

// --- message box pool -----------------------------------------------------

namespace {

// Free ProtocolMessage blocks of one thread, linked through their first
// bytes. Under ASan a listed block is poisoned, so a stale pointer into a
// recycled box still faults; the macros are no-ops in other builds.
class BoxPool {
 public:
  BoxPool() = default;
  BoxPool(const BoxPool&) = delete;
  BoxPool& operator=(const BoxPool&) = delete;

  // Returns every listed block to ::operator delete at thread exit.
  ~BoxPool() {
    while (head_ != nullptr) ::operator delete(pop(), kBlock);
  }

  void* take() {
    if (head_ == nullptr) return ::operator new(kBlock);
    return pop();
  }

  // Tops the list up to kPooledBoxes blocks from ::operator new.
  void fill() {
    while (size_ < kPooledBoxes) give(::operator new(kBlock));
  }

  void give(void* block) noexcept {
    if (size_ == kPooledBoxes) {
      ::operator delete(block, kBlock);
      return;
    }
    head_ = ::new (block) Free{head_};
    ++size_;
    ASAN_POISON_MEMORY_REGION(block, kBlock);
  }

 private:
  static constexpr std::size_t kBlock = sizeof(ProtocolMessage);

  struct Free {
    Free* next;
  };
  static_assert(sizeof(Free) <= kBlock);

  void* pop() noexcept {
    Free* block = head_;
    ASAN_UNPOISON_MEMORY_REGION(block, kBlock);
    head_ = block->next;
    --size_;
    return block;
  }

  Free* head_ = nullptr;
  std::size_t size_ = 0;
};

thread_local BoxPool box_pool;  // analyze:allow(mutable-global) holds only free memory, never protocol-visible state; per-thread, so shard-per-thread simulation still works

// Other threads grow their lists on demand, but the main thread's starts
// full, before main() runs. A full list is where every run leaves it (a
// run frees all its boxes, and the list keeps up to kPooledBoxes), so each
// run of a process starts from the same list and allocates as much as any
// repeat of it: perfbench, for one, requires a repeated input to repeat
// its allocation count.
[[maybe_unused]] const bool main_thread_list_filled = (box_pool.fill(), true);

}  // namespace

void* ProtocolMessage::operator new(std::size_t size) {
  if (size != sizeof(ProtocolMessage)) return ::operator new(size);
  return box_pool.take();
}

void ProtocolMessage::operator delete(void* block, std::size_t size) noexcept {
  if (size != sizeof(ProtocolMessage)) {
    ::operator delete(block, size);
    return;
  }
  box_pool.give(block);
}

// --- sizes and kinds ------------------------------------------------------

namespace {

// Fixed header: source id, destination id, type tag, sequence/checksum
// fields — a realistic 1980s application-level header.
constexpr std::size_t kHeaderBytes = 24;

struct SizeVisitor {
  std::size_t operator()(const DataMsg& m) const {
    std::size_t size = kHeaderBytes + 8 + m.body.size();
    if (m.auth.has_value()) {
      size += 16;  // digest + tag, both u64
    }
    if (m.piggyback.has_value()) {
      size += 4 + m.piggyback->first.wire_size();
    }
    return size;
  }
  std::size_t operator()(const InfoMsg& m) const {
    return kHeaderBytes + 4 + m.info.wire_size();
  }
  std::size_t operator()(const AttachRequest& m) const {
    return kHeaderBytes + m.info.wire_size();
  }
  std::size_t operator()(const AttachAccept& m) const {
    return kHeaderBytes + 4 + m.info.wire_size();
  }
  std::size_t operator()(const DetachNotice&) const { return kHeaderBytes; }
};

struct KindVisitor {
  const char* operator()(const DataMsg& m) const {
    return m.gap_fill ? "gapfill" : "data";
  }
  const char* operator()(const InfoMsg&) const { return "info"; }
  const char* operator()(const AttachRequest&) const { return "attach_req"; }
  const char* operator()(const AttachAccept&) const { return "attach_ack"; }
  const char* operator()(const DetachNotice&) const { return "detach"; }
};

}  // namespace

std::size_t wire_size(const ProtocolMessage& m) {
  return std::visit(SizeVisitor{}, m);
}

const char* kind_of(const ProtocolMessage& m) {
  return std::visit(KindVisitor{}, m);
}

bool is_data(const ProtocolMessage& m) {
  return std::holds_alternative<DataMsg>(m);
}

// --- wire codec -----------------------------------------------------------

namespace {

enum : std::uint8_t {
  kTagData = 1,
  kTagInfo = 2,
  kTagAttachRequest = 3,
  kTagAttachAccept = 4,
  kTagDetach = 5,
};

enum : std::uint8_t {
  kDataFlagGapFill = 1,
  kDataFlagPiggyback = 2,
  // Authenticated frame: digest + tag follow the body (see auth.h).
  // Pre-auth decoders reject the unknown flag bit, which doubles as
  // version negotiation: a mixed fleet cannot half-verify a stream.
  kDataFlagAuth = 4,
};

using util::put_u32;
using util::put_u64;
using util::put_u8;

void put_host(std::string& out, HostId h) {
  put_u32(out, static_cast<std::uint32_t>(h.value));
}

// SeqSet::encode_to writes the set's own codec; the u32 length frames it.
void put_seq_set(std::string& out, const SeqSet& set) {
  put_u32(out, static_cast<std::uint32_t>(set.wire_size()));
  set.encode_to(out);
}

// The byte reader plus the two protocol-typed fields.
class Reader : public util::ByteReader {
 public:
  using ByteReader::ByteReader;

  // SeqSet::decode validates the interval invariants and kMaxSeq bound
  // itself; this only frames the bytes.
  [[nodiscard]] bool take_seq_set(SeqSet& out) {
    std::uint32_t len = 0;
    std::string_view bytes;
    if (!take_u32(len) || !take_view(bytes, len)) return false;
    auto decoded = SeqSet::decode(bytes);
    if (!decoded.has_value()) return false;
    out = *std::move(decoded);
    return true;
  }

  [[nodiscard]] bool take_host(HostId& out) {
    std::uint32_t raw = 0;
    if (!take_u32(raw)) return false;
    const auto v = static_cast<std::int32_t>(raw);
    if (v < kNoHost.value) return false;
    out = HostId{v};
    return true;
  }
};

struct EncodeVisitor {
  std::string& out;

  void operator()(const DataMsg& m) const {
    put_u8(out, kTagData);
    put_u64(out, m.seq);
    std::uint8_t flags = 0;
    if (m.gap_fill) flags |= kDataFlagGapFill;
    if (m.piggyback.has_value()) flags |= kDataFlagPiggyback;
    if (m.auth.has_value()) flags |= kDataFlagAuth;
    put_u8(out, flags);
    put_u32(out, static_cast<std::uint32_t>(m.body.size()));
    out.append(m.body.view());
    if (m.auth.has_value()) {
      put_u64(out, m.auth->digest);
      put_u64(out, m.auth->tag);
    }
    if (m.piggyback.has_value()) {
      put_seq_set(out, m.piggyback->first);
      put_host(out, m.piggyback->second);
    }
  }
  void operator()(const InfoMsg& m) const {
    put_u8(out, kTagInfo);
    put_seq_set(out, m.info);
    put_host(out, m.parent);
  }
  void operator()(const AttachRequest& m) const {
    put_u8(out, kTagAttachRequest);
    put_seq_set(out, m.info);
  }
  void operator()(const AttachAccept& m) const {
    put_u8(out, kTagAttachAccept);
    put_seq_set(out, m.info);
    put_host(out, m.parent);
  }
  void operator()(const DetachNotice&) const { put_u8(out, kTagDetach); }
};

}  // namespace

std::string encode_message(const ProtocolMessage& m) {
  std::string out;
  out.reserve(wire_size(m));
  std::visit(EncodeVisitor{out}, m);
  return out;
}

std::optional<ProtocolMessage> decode_message(const char* data,
                                              std::size_t size) {
  Reader r(std::string_view(data, size));
  std::uint8_t tag = 0;
  if (!r.take_u8(tag)) return std::nullopt;
  ProtocolMessage m;
  switch (tag) {
    case kTagData: {
      DataMsg d;
      std::uint8_t flags = 0;
      std::uint32_t body_len = 0;
      std::string_view body;
      if (!r.take_u64(d.seq) || d.seq < 1 || d.seq > SeqSet::kMaxSeq ||
          !r.take_u8(flags) ||
          (flags &
           ~(kDataFlagGapFill | kDataFlagPiggyback | kDataFlagAuth)) != 0 ||
          !r.take_u32(body_len) || body_len > kMaxBodyBytes ||
          !r.take_view(body, body_len)) {
        return std::nullopt;
      }
      d.body = body;
      d.gap_fill = (flags & kDataFlagGapFill) != 0;
      if ((flags & kDataFlagAuth) != 0) {
        AuthTag t;
        if (!r.take_u64(t.digest) || !r.take_u64(t.tag)) {
          return std::nullopt;
        }
        d.auth = t;
      }
      if ((flags & kDataFlagPiggyback) != 0) {
        SeqSet info;
        HostId parent{kNoHost};
        if (!r.take_seq_set(info) || !r.take_host(parent)) {
          return std::nullopt;
        }
        d.piggyback.emplace(std::move(info), parent);
      }
      m = std::move(d);
      break;
    }
    case kTagInfo: {
      InfoMsg i;
      if (!r.take_seq_set(i.info) || !r.take_host(i.parent)) {
        return std::nullopt;
      }
      m = std::move(i);
      break;
    }
    case kTagAttachRequest: {
      AttachRequest a;
      if (!r.take_seq_set(a.info)) return std::nullopt;
      m = std::move(a);
      break;
    }
    case kTagAttachAccept: {
      AttachAccept a;
      if (!r.take_seq_set(a.info) || !r.take_host(a.parent)) {
        return std::nullopt;
      }
      m = std::move(a);
      break;
    }
    case kTagDetach:
      m = DetachNotice{};
      break;
    default:
      return std::nullopt;
  }
  if (!r.done()) return std::nullopt;  // trailing bytes
  return m;
}

}  // namespace rbcast::core
