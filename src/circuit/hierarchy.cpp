#include "circuit/hierarchy.h"

#include <string>
#include <unordered_map>

#include "util/bytes.h"
#include "util/strings.h"

namespace paragraph::circuit {

std::uint64_t instance_structural_hash(const Netlist& nl, const SubcktInstance& inst) {
  // Boundary nets map to their first port position (a net bound to two
  // ports canonicalizes to the lower one on every instance alike).
  std::unordered_map<NetId, std::int32_t> port_of;
  for (std::size_t p = 0; p < inst.ref.boundary_nets.size(); ++p)
    port_of.emplace(inst.ref.boundary_nets[p], static_cast<std::int32_t>(p));
  // Instance-private nets map to their creation offset among the non-supply
  // nets of the subtree's created range. Supply/global nets are excluded
  // because their creation site depends on which instance touched them
  // first — they canonicalize by name instead.
  std::unordered_map<NetId, std::int32_t> private_of;
  std::int32_t next_private = 0;
  for (NetId n = inst.first_net; n < inst.net_end; ++n)
    if (!nl.net(n).is_supply) private_of.emplace(n, next_private++);

  util::ByteWriter buf(static_cast<std::size_t>(inst.device_end - inst.first_device) * 48);
  buf.pod(static_cast<std::uint32_t>(inst.ref.boundary_nets.size()));
  for (DeviceId id = inst.first_device; id < inst.device_end; ++id) {
    const Device& d = nl.device(id);
    buf.pod(static_cast<std::uint8_t>(d.kind));
    buf.pod(d.params.length);
    buf.pod(static_cast<std::int32_t>(d.params.num_fingers));
    buf.pod(static_cast<std::int32_t>(d.params.num_fins));
    buf.pod(static_cast<std::int32_t>(d.params.multiplier));
    buf.pod(d.params.value);
    buf.pod(static_cast<std::uint32_t>(d.conns.size()));
    for (const NetId c : d.conns) {
      // Port references canonicalize by position before the supply check:
      // binding a port to a supply net merges the port with the global, so
      // such an instance is a distinct canonical shape (it gets its own
      // cache entry rather than a false collision with signal-bound
      // siblings — see gnn::PlanCache).
      if (auto it = port_of.find(c); it != port_of.end()) {
        buf.pod('P');
        buf.pod(it->second);
      } else if (nl.net(c).is_supply) {
        buf.pod('G');
        buf.pod(util::fnv1a64(util::to_lower(nl.net(c).name)));
      } else if (auto jt = private_of.find(c); jt != private_of.end()) {
        buf.pod('I');
        buf.pod(jt->second);
      } else {
        // Unreachable for parser-built netlists (only ports and globals
        // escape a subckt); hashing the raw id keeps a hand-assembled
        // record instance-specific rather than falsely shared.
        buf.pod('X');
        buf.pod(c);
      }
    }
  }
  return util::fnv1a64(buf.view());
}

void compute_structural_hashes(Netlist& nl) {
  for (SubcktInstance& inst : nl.mutable_instances())
    inst.ref.structural_hash = instance_structural_hash(nl, inst);
}

}  // namespace paragraph::circuit
