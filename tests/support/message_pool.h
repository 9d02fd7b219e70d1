// Puts the calling thread's ProtocolMessage free list (core/messages.h) in
// a known state before a measured allocation gate: kPooledBoxes boxes alive
// at once, then freed, leave the list holding its full kPooledBoxes blocks
// whatever ran on this thread before. A measured region that keeps fewer
// boxes alive at once than that then takes every box from the list, so its
// count does not depend on which test ran first.
#pragma once

#include <memory>
#include <vector>

#include "core/messages.h"

namespace rbcast::testing {

inline void fill_message_pool() {
  std::vector<std::unique_ptr<core::ProtocolMessage>> boxes;
  boxes.reserve(core::kPooledBoxes);
  for (std::size_t i = 0; i < core::kPooledBoxes; ++i) {
    boxes.push_back(std::make_unique<core::ProtocolMessage>());
  }
}

}  // namespace rbcast::testing
