#include "consensus/message.hpp"

#include <new>

namespace ci::consensus {

namespace {

const UtilityEntry& entry_of(const WireRow& r, const Message& m) {
  return *std::launder(reinterpret_cast<const UtilityEntry*>(
      reinterpret_cast<const unsigned char*>(&m.u) + r.fixed));
}

std::size_t entry_bytes(const UtilityEntry& e) {
  // Entries without batched proposals serialize only the proposals they
  // hold: the appended batched[] region is left off (receivers zero-fill,
  // so num_batched reads 0).
  if (e.num_batched == 0) {
    return offsetof(UtilityEntry, proposals) +
           static_cast<std::size_t>(e.num_proposals) * sizeof(Proposal);
  }
  return offsetof(UtilityEntry, batched) +
         static_cast<std::size_t>(e.num_batched) * sizeof(BatchedProposalRef);
}

// Each batched ref names a protocol batch: 2..kMaxCommandsPerBatch commands.
bool entry_ok(const UtilityEntry& e) {
  if (e.num_proposals < 0 || e.num_proposals > kMaxProposalsPerMsg) return false;
  if (e.num_batched < 0 || e.num_batched > kMaxBatchedPerEntry) return false;
  for (std::int32_t i = 0; i < e.num_batched; ++i) {
    if (e.batched[i].count < 2 || e.batched[i].count > kMaxCommandsPerBatch) return false;
  }
  return true;
}

std::size_t payload_bytes(const WireRow& r, const Message& m) {
  switch (r.tail) {
    case Tail::kNone:
      return r.fixed;
    case Tail::kArray:
    case Tail::kRun:
      return r.fixed + static_cast<std::size_t>(r.count(m)) * r.elem;
    case Tail::kEntry:
      return r.fixed + entry_bytes(entry_of(r, m));
  }
  return sizeof(Message::Payload);
}

}  // namespace

std::size_t wire_size(const Message& m) {
  const WireRow* r = wire_row(m.type);
  // Unknown type: be conservative.
  return kMessageHeaderBytes + (r != nullptr ? payload_bytes(*r, m) : sizeof(Message::Payload));
}

bool wire_validate(const Message& m, std::size_t bytes) {
  const WireRow* r = wire_row(m.type);
  if (bytes < kMessageHeaderBytes || r == nullptr || m.group < 0) return false;
  if (r->elem != 0) {
    const std::int32_t n = r->count(m);
    if (n < r->min_count || n > r->max_count) return false;
  }
  if (r->sidecars_at != 0 && WireRow::payload_i32(m, r->sidecars_at) < 0) return false;
  if (r->tail == Tail::kEntry && !entry_ok(entry_of(*r, m))) return false;
  return bytes >= wire_size(m);
}

}  // namespace ci::consensus
