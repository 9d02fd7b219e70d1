#include "model/model_node.h"

#include <sstream>

#include "core/attachment.h"
#include "core/gap_filling.h"
#include "util/assert.h"

namespace rbcast::model {

namespace {

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
    : state_(self, make_hosts(config.hosts), config.source),
      source_(config.source) {}

ModelMessage ModelNode::make(HostId to, ProtocolMessage m) const {
  return ModelMessage{self(), to, std::move(m)};
}

void ModelNode::deliver_to_app(Seq seq, std::string_view body) {
  ++deliveries_[seq];
  delivered_bodies_[seq] = std::string(body);
}

std::vector<ModelMessage> ModelNode::broadcast(Seq seq,
                                               const std::string& body) {
  RBCAST_ASSERT(self() == source_);
  const bool fresh = state_.record_message(seq, body);
  RBCAST_ASSERT(fresh);
  deliver_to_app(seq, body);
  std::vector<ModelMessage> out;
  for (HostId child : state_.children()) {
    if (!state_.map(child).contains(seq)) {
      out.push_back(make(child, core::DataMsg{seq, body, false, std::nullopt,
                                              std::nullopt}));
    }
  }
  return out;
}

std::vector<ModelMessage> ModelNode::on_message(HostId from,
                                                const ProtocolMessage& message,
                                                bool expensive,
                                                const ModelConfig& config) {
  // Mirrors BroadcastHost::on_delivery: cost-bit cluster update first.
  state_.update_cluster_from_cost_bit(from, expensive);

  std::vector<ModelMessage> out;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, core::DataMsg>) {
          out = handle_data(from, m, config);
        } else if constexpr (std::is_same_v<T, core::InfoMsg>) {
          handle_info(from, m);
        } else if constexpr (std::is_same_v<T, core::AttachRequest>) {
          out = handle_attach_request(from, m);
        } else if constexpr (std::is_same_v<T, core::AttachAccept>) {
          out = handle_attach_accept(from, m);
        } else {
          static_assert(std::is_same_v<T, core::DetachNotice>);
          state_.remove_child(from);
        }
      },
      message);
  return out;
}

std::vector<ModelMessage> ModelNode::handle_data(HostId from,
                                                 const core::DataMsg& m,
                                                 const ModelConfig& config) {
  state_.learn_has(from, m.seq);

  if (state_.has_message(m.seq)) {
    // Duplicate. The double-delivery mutant "forgets" the discard rule.
    if (config.mutant_double_delivery) {
      deliver_to_app(m.seq, m.body.view());
    }
    return {};
  }
  if (self() == source_) return {};

  const bool new_max = m.seq > state_.info().max_seq();
  if (new_max && from != state_.parent() &&
      !config.mutant_accept_from_anyone) {
    return {};  // acceptance rule: new maxima only from the parent
  }

  const bool fresh = state_.record_message(m.seq, m.body);
  RBCAST_ASSERT(fresh);
  deliver_to_app(m.seq, m.body.view());

  std::vector<ModelMessage> out;
  if (new_max) {
    for (HostId child : state_.children()) {
      if (child == from) continue;
      if (state_.map(child).contains(m.seq)) continue;
      out.push_back(make(child, core::DataMsg{m.seq, m.body, false,
                                              std::nullopt, std::nullopt}));
    }
  } else {
    state_.for_each_neighbor([&](HostId n) {
      if (n == from) return;
      if (state_.map(n).contains(m.seq)) return;
      out.push_back(make(n, core::DataMsg{m.seq, m.body, true, std::nullopt,
                                          std::nullopt}));
    });
  }
  return out;
}

void ModelNode::handle_info(HostId from, const core::InfoMsg& m) {
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);
  if (m.parent == self()) {
    state_.add_child(from);
  } else {
    state_.remove_child(from);
  }
}

std::vector<ModelMessage> ModelNode::handle_attach_request(
    HostId from, const core::AttachRequest& m) {
  state_.learn_info(from, m.info);
  state_.add_child(from);
  state_.learn_parent(from, self());

  std::vector<ModelMessage> out;
  out.push_back(make(from, core::AttachAccept{state_.info(), state_.parent()}));
  for (Seq seq : core::plan_attach_backfill(state_, m.info, /*burst=*/64)) {
    out.push_back(make(from, core::DataMsg{seq, *state_.body_of(seq), true,
                                           std::nullopt, std::nullopt}));
  }
  return out;
}

std::vector<ModelMessage> ModelNode::handle_attach_accept(
    HostId from, const core::AttachAccept& m) {
  state_.learn_info(from, m.info);
  state_.learn_parent(from, m.parent);

  std::vector<ModelMessage> out;
  if (pending_attach_ == from) {
    pending_attach_ = kNoHost;
    const HostId old_parent = state_.parent();
    state_.set_parent(from);
    state_.remove_child(from);
    if (old_parent.valid() && old_parent != from) {
      out.push_back(make(old_parent, core::DetachNotice{}));
    }
  } else if (from != state_.parent()) {
    out.push_back(make(from, core::DetachNotice{}));
  }
  return out;
}

std::vector<ModelMessage> ModelNode::attachment_step(
    const ModelConfig& config) {
  if (self() == source_) return {};
  if (pending_attach_.valid()) return {};

  auto decision =
      core::run_attachment(state_, {}, config.parent_switch_margin);
  std::vector<ModelMessage> out;
  if (decision.action == core::AttachmentDecision::Action::kBreakCycle) {
    const HostId old_parent = state_.parent();
    state_.set_parent(kNoHost);
    if (old_parent.valid()) out.push_back(make(old_parent, core::DetachNotice{}));
    decision = core::run_attachment(state_, {}, config.parent_switch_margin);
  }
  if (decision.action == core::AttachmentDecision::Action::kAttach) {
    pending_attach_ = decision.candidate;
    out.push_back(
        make(decision.candidate, core::AttachRequest{state_.info()}));
  }
  return out;
}

std::vector<ModelMessage> ModelNode::info_step(HostId to) {
  if (to == self()) return {};
  return {make(to, core::InfoMsg{state_.info(), state_.parent()})};
}

std::vector<ModelMessage> ModelNode::gapfill_step(HostId to,
                                                  const ModelConfig&) {
  if (to == self()) return {};
  std::vector<Seq> plan;
  if (state_.is_child(to) || to == state_.parent()) {
    plan = core::plan_neighbor_gapfill(state_, to, state_.is_child(to),
                                       /*burst=*/8);
  } else {
    plan = core::plan_far_gapfill(state_, to, /*burst=*/8);
  }
  std::vector<ModelMessage> out;
  for (Seq seq : plan) {
    out.push_back(make(to, core::DataMsg{seq, *state_.body_of(seq), true,
                                         std::nullopt, std::nullopt}));
  }
  return out;
}

std::vector<ModelMessage> ModelNode::parent_timeout_step() {
  if (!state_.parent().valid()) return {};
  state_.set_parent(kNoHost);
  return {};
}

void ModelNode::give_up_attach_step() { pending_attach_ = kNoHost; }

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
