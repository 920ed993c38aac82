#include "harness/network.hpp"

#include <stdexcept>

namespace hsim::harness {

std::optional<netem::PathProfile> resolve_profile(const std::string& value,
                                                  bool* flat) {
  if (flat != nullptr) *flat = false;
  if (value.empty()) return std::nullopt;
  if (value == "flat") {
    if (flat != nullptr) *flat = true;
    return std::nullopt;
  }
  if (std::optional<netem::PathProfile> named = netem::named_profile(value)) {
    return named;
  }
  // Not a built-in: treat it as a trace file path (profiles/*.netem).
  if (value.find('/') != std::string::npos ||
      value.find(".netem") != std::string::npos) {
    netem::PathProfile p;
    std::string error;
    if (!netem::load_profile_file(value, &p, &error)) {
      throw std::invalid_argument(error);
    }
    return p;
  }
  std::string known = "flat";
  for (const std::string& n : netem::named_profile_names()) known += ", " + n;
  throw std::invalid_argument("unknown netem profile '" + value +
                              "' (known: " + known +
                              "; or pass a profiles/*.netem file path)");
}

void apply_profile_overlay(const std::string& value, net::ChannelConfig& cfg,
                           const char* label_prefix) {
  bool flat = false;
  std::optional<netem::PathProfile> profile = resolve_profile(value, &flat);
  if (flat) {
    // Identity oracle: each direction's own static bandwidth as a constant
    // single-segment timeline, no radio, no queue override. Byte-exact with
    // no overlay — the golden suite re-runs every golden under "flat".
    auto a = std::make_shared<netem::LinkDynamics>();
    a->profile = netem::Profile::constant(cfg.a_to_b.bandwidth_bps);
    auto b = std::make_shared<netem::LinkDynamics>();
    b->profile = netem::Profile::constant(cfg.b_to_a.bandwidth_bps);
    cfg.a_to_b.dynamics = std::move(a);
    cfg.b_to_a.dynamics = std::move(b);
    return;
  }
  if (!profile) return;
  net::apply_path_profile(*profile, cfg, label_prefix);
}

}  // namespace hsim::harness
