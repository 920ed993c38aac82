// Chaos harness: named fault regimes layered onto any experiment.
//
// Each ChaosFault names one end-to-end failure mode — bursty link loss, a
// link outage, a wedged or dying server, a 5xx storm — expressed through the
// fault-injection knobs of the individual layers (net::LinkConfig,
// server::ServerFaults, client::ClientConfig). apply_chaos() installs the
// fault AND hardens the client so the retrieval always resolves: either the
// recovery machinery delivers every byte, or the run ends with structured,
// attributed failures. It never hangs.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace hsim::harness {

enum class ChaosFault {
  kNone,            // control: no fault, recovery knobs still armed
  kBurstLoss,       // Gilbert-Elliott bursty loss, both directions
  kOutage,          // one multi-second link outage mid-retrieval
  kLinkFlaps,       // repeated short outages
  kDuplication,     // random packet duplication
  kReordering,      // bounded packet reordering
  kCorruption,      // payload corruption, dropped at the receiver
  kServerStall,     // server wedges mid-response, connection left open
  kPrematureClose,  // server discards its buffer and closes mid-response
  kServerErrors,    // transient 500 storm
};
std::string_view to_string(ChaosFault fault);

/// Every fault regime except kNone, for exhaustive iteration.
std::vector<ChaosFault> all_chaos_faults();

/// Installs `fault` into `spec` (channel mutation and/or server faults) and
/// arms the client-side recovery knobs (deadlines, bounded retries with
/// backoff, 5xx retry) so the run terminates under every regime.
void apply_chaos(ChaosFault fault, ExperimentSpec& spec);

/// True iff `cache` holds "/index.html" and every site image with
/// byte-identical bodies — the retrieval survived the fault unscathed.
bool cache_matches_site(const client::Cache& cache,
                        const content::MicroscapeSite& site);

struct ChaosOutcome {
  RunResult result;
  bool byte_exact = false;  // cache_matches_site after the run
};

/// The chaos experiment: one first-visit retrieval with protocol `mode` on
/// the WAN profile, `fault` installed and the client's recovery armed
/// (apply_chaos). Callers vary any other setting — CC module, netem
/// profile — on the returned spec before run_chaos.
ExperimentSpec chaos_spec(ChaosFault fault, client::ProtocolMode mode,
                          std::uint64_t seed = 1);

/// Runs `spec` (usually from chaos_spec) against `site` and checks the cache
/// byte-for-byte; it replaces spec.inspect_robot to do so. Deterministic for
/// a given spec.
///
/// `topology` selects the substrate: kStar is the legacy single-channel
/// run_once path (byte-exact with earlier builds); kDumbbell and
/// kDumbbellRedundant drive one client through the router /
/// queue-discipline topologies, with spec.network, spec.profile and the
/// channel mutation applied to the client's access leg. Every regime
/// terminates on every substrate.
ChaosOutcome run_chaos(const ExperimentSpec& spec,
                       const content::MicroscapeSite& site,
                       TopologyKind topology = TopologyKind::kStar);

}  // namespace hsim::harness
