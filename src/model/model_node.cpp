#include "model/model_node.h"

#include <sstream>

#include "core/gap_filling.h"
#include "util/assert.h"

namespace rbcast::model {

namespace {

// Case II option (3) exactly as the paper states it: any strictly greater
// INFO set triggers a switch (Config::parent_switch_margin's default).
constexpr Seq kParentSwitchMargin = 0;

std::vector<HostId> make_hosts(int n) {
  std::vector<HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(HostId{i});
  return out;
}

}  // namespace

std::string ModelMessage::describe() const {
  std::ostringstream os;
  os << from << "->" << to << ":" << core::kind_of(payload);
  if (const auto* data = std::get_if<core::DataMsg>(&payload)) {
    os << "#" << data->seq;
  } else if (const auto* info = std::get_if<core::InfoMsg>(&payload)) {
    os << info->info.to_string() << "/p=" << info->parent.value;
  } else if (const auto* req = std::get_if<core::AttachRequest>(&payload)) {
    os << req->info.to_string();
  } else if (const auto* acc = std::get_if<core::AttachAccept>(&payload)) {
    os << acc->info.to_string() << "/p=" << acc->parent.value;
  }
  return os.str();
}

ModelNode::ModelNode(HostId self, const ModelConfig& config)
    : ProtocolRules(self, make_hosts(config.hosts), kSource),
      mutant_double_delivery_(config.mutant_double_delivery),
      mutant_accept_from_anyone_(config.mutant_accept_from_anyone) {}

std::vector<ModelMessage> ModelNode::broadcast(Seq seq,
                                               const std::string& body) {
  RBCAST_ASSERT(is_source());
  originate({seq, body, std::nullopt});
  return take_sends();
}

std::vector<ModelMessage> ModelNode::on_message(HostId from,
                                                const ProtocolMessage& message,
                                                bool expensive) {
  // As BroadcastHost::on_delivery: cost-bit cluster update first.
  state_.update_cluster_from_cost_bit(from, expensive);
  receive(from, message);
  return take_sends();
}

std::vector<ModelMessage> ModelNode::attachment_step() {
  core::HostState::AncestorWalk walk;
  ProtocolRules::attachment_step(kParentSwitchMargin, walk);
  return take_sends();
}

std::vector<ModelMessage> ModelNode::info_step(HostId to) {
  if (to == self()) return {};
  send_message(to, core::InfoMsg{state_.info(), state_.parent()});
  return take_sends();
}

std::vector<ModelMessage> ModelNode::gapfill_step(HostId to) {
  if (to == self()) return {};
  std::vector<Seq> plan;
  if (state_.is_child(to) || to == state_.parent()) {
    plan = core::plan_neighbor_gapfill(state_, to, state_.is_child(to),
                                       /*burst=*/8);
  } else {
    plan = core::plan_far_gapfill(state_, to, /*burst=*/8);
  }
  for (Seq seq : plan) send_gapfill(to, seq);
  return take_sends();
}

void ModelNode::parent_timeout_step() {
  detach_from_parent(/*notify=*/false, /*timeout=*/true);
}

std::string ModelNode::fingerprint() const {
  std::ostringstream os;
  os << self() << "{i=" << state_.info().to_string()
     << ";p=" << state_.parent().value << ";pa=" << pending_attach_.value
     << ";c=";
  for (HostId child : state_.children()) os << child.value << ',';
  os << ";cl=";
  for (HostId member : state_.cluster()) os << member.value << ',';
  os << ";m=";
  for (HostId h : state_.all_hosts()) {
    if (h == self()) continue;
    os << h.value << '=' << state_.map(h).to_string() << '|'
       << state_.parent_of(h).value << ',';
  }
  os << ";d=";
  for (const auto& [seq, count] : deliveries_) os << seq << 'x' << count << ',';
  os << '}';
  return os.str();
}

}  // namespace rbcast::model
