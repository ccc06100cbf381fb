#include "persist/snapshot.h"

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "persist/codec.h"

namespace hera {
namespace persist {

namespace {

constexpr char kMagic[8] = {'H', 'E', 'R', 'A', 'S', 'N', 'A', 'P'};

// ---------------------------------------------------------------------
// FNV-1a 64-bit fingerprinting.

class Fnv1a {
 public:
  void MixBytes(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void MixU8(uint8_t v) { MixBytes(&v, 1); }
  void MixU32(uint32_t v) {
    uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    MixBytes(b, 4);
  }
  void MixU64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (8 * i));
    MixBytes(b, 8);
  }
  void MixF64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    MixU64(bits);
  }
  void MixString(std::string_view s) {
    MixU64(s.size());
    MixBytes(s.data(), s.size());
  }
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

void MixValue(Fnv1a* f, const Value& v) {
  f->MixU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kString:
      f->MixString(v.AsString());
      break;
    case ValueType::kNumber:
      f->MixF64(v.AsNumber());
      break;
  }
}

void MixSchemas(Fnv1a* f, const SchemaCatalog& schemas) {
  f->MixU64(schemas.size());
  for (uint32_t s = 0; s < schemas.size(); ++s) {
    const Schema& schema = schemas.Get(s);
    f->MixString(schema.name());
    f->MixU64(schema.size());
    for (const std::string& attr : schema.attributes()) f->MixString(attr);
  }
}

// ---------------------------------------------------------------------
// Scalar encode/decode helpers.

void PutLabel(ByteWriter* w, const ValueLabel& l) {
  w->PutU32(l.rid);
  w->PutU32(l.fid);
  w->PutU32(l.vid);
}

Status GetLabel(ByteReader* r, ValueLabel* l) {
  HERA_RETURN_NOT_OK(r->GetU32(&l->rid));
  HERA_RETURN_NOT_OK(r->GetU32(&l->fid));
  return r->GetU32(&l->vid);
}

void PutValue(ByteWriter* w, const Value& v) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kString:
      w->PutString(v.AsString());
      break;
    case ValueType::kNumber:
      w->PutF64(v.AsNumber());
      break;
  }
}

Status GetValue(ByteReader* r, Value* v) {
  uint8_t tag = 0;
  HERA_RETURN_NOT_OK(r->GetU8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value();
      return Status::OK();
    case ValueType::kString: {
      std::string s;
      HERA_RETURN_NOT_OK(r->GetString(&s));
      *v = Value(std::move(s));
      return Status::OK();
    }
    case ValueType::kNumber: {
      double d = 0.0;
      HERA_RETURN_NOT_OK(r->GetF64(&d));
      *v = Value(d);
      return Status::OK();
    }
    default:
      return Status::IOError("unknown value tag " + std::to_string(tag));
  }
}

/// Rejects element counts a corrupted file could not legitimately hold
/// (every element is at least one byte), so bogus counts fail cleanly
/// instead of driving a huge reserve().
Status CheckCount(const ByteReader& r, uint64_t count) {
  if (count > r.remaining()) {
    return Status::IOError("corrupt element count " + std::to_string(count));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Section payloads.

std::string EncodeHeader(const SnapshotHeader& h) {
  ByteWriter w;
  w.PutBytes(kMagic, sizeof(kMagic));
  w.PutU32(kSnapshotVersion);
  w.PutU8(static_cast<uint8_t>(h.kind));
  w.PutU64(h.options_fp);
  w.PutU64(h.corpus_fp);
  w.PutU64(h.epoch);
  w.PutU64(h.iteration);
  return w.Take();
}

Status DecodeHeader(std::string_view payload, SnapshotHeader* h) {
  ByteReader r(payload);
  char magic[8];
  for (char& c : magic) {
    uint8_t b = 0;
    HERA_RETURN_NOT_OK(r.GetU8(&b));
    c = static_cast<char>(b);
  }
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("bad snapshot magic");
  }
  uint32_t version = 0;
  HERA_RETURN_NOT_OK(r.GetU32(&version));
  if (version != kSnapshotVersion) {
    return Status::IOError("unsupported snapshot version " +
                           std::to_string(version));
  }
  uint8_t kind = 0;
  HERA_RETURN_NOT_OK(r.GetU8(&kind));
  if (kind > static_cast<uint8_t>(RunKind::kIncremental)) {
    return Status::IOError("unknown run kind " + std::to_string(kind));
  }
  h->kind = static_cast<RunKind>(kind);
  HERA_RETURN_NOT_OK(r.GetU64(&h->options_fp));
  HERA_RETURN_NOT_OK(r.GetU64(&h->corpus_fp));
  HERA_RETURN_NOT_OK(r.GetU64(&h->epoch));
  return r.GetU64(&h->iteration);
}

std::string EncodeCore(const EngineState& s) {
  ByteWriter w;
  w.PutU64(s.num_records);
  for (uint32_t label : s.labels) w.PutU32(label);

  const HeraStats& st = s.stats;
  w.PutU64(st.index_size);
  w.PutU64(st.iterations);
  w.PutU64(st.comparisons);
  w.PutU64(st.candidates);
  w.PutU64(st.direct_merges);
  w.PutU64(st.pruned_by_bound);
  w.PutU64(st.merges);
  w.PutU64(st.decided_schema_matchings);
  w.PutF64(st.avg_simplified_nodes);
  w.PutF64(st.index_build_ms);
  w.PutF64(st.total_ms);
  w.PutU8(static_cast<uint8_t>(st.outcome));
  w.PutU64(st.shed_index_pairs);
  w.PutU64(st.shed_posting_entries);
  w.PutU64(st.deferred_candidate_groups);
  w.PutU8(st.join_truncated ? 1 : 0);
  w.PutU64(st.merge_sequence.size());
  for (const auto& [i, j] : st.merge_sequence) {
    w.PutU32(i);
    w.PutU32(j);
  }

  w.PutU32(s.indexed_watermark);
  w.PutU64(s.join_shed_posting);
  w.PutF64(s.simplified_nodes_sum);
  w.PutU64(s.simplified_nodes_count);

  w.PutU64(s.index_next_pid);
  w.PutU64(s.index_probe_count);
  w.PutU64(s.index_shed_pairs);
  w.PutU64(s.index_shed_posting);
  w.PutU64(s.num_predictions);

  w.PutU8(s.loop_first_pass ? 1 : 0);
  w.PutU64(s.loop_dirty.size());
  for (uint32_t rid : s.loop_dirty) w.PutU32(rid);
  w.PutU64(s.loop_deferred.size());
  for (const auto& [a, b] : s.loop_deferred) {
    w.PutU32(a);
    w.PutU32(b);
  }

  // v2: best-first budget stats. Appended last so the field order above
  // matches v1 byte-for-byte up to here.
  w.PutU64(st.shed_join_candidates);
  w.PutU64(st.frontier_groups);
  w.PutU64(st.budget_deferred_groups);
  return w.Take();
}

Status DecodeCore(std::string_view payload, EngineState* s) {
  ByteReader r(payload);
  HERA_RETURN_NOT_OK(r.GetU64(&s->num_records));
  HERA_RETURN_NOT_OK(CheckCount(r, s->num_records));
  s->labels.resize(s->num_records);
  for (uint32_t& label : s->labels) HERA_RETURN_NOT_OK(r.GetU32(&label));

  HeraStats& st = s->stats;
  uint64_t u = 0;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.index_size = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.iterations = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.comparisons = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.candidates = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.direct_merges = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.pruned_by_bound = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.merges = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.decided_schema_matchings = u;
  HERA_RETURN_NOT_OK(r.GetF64(&st.avg_simplified_nodes));
  HERA_RETURN_NOT_OK(r.GetF64(&st.index_build_ms));
  HERA_RETURN_NOT_OK(r.GetF64(&st.total_ms));
  uint8_t b = 0;
  HERA_RETURN_NOT_OK(r.GetU8(&b));
  if (b > static_cast<uint8_t>(RunOutcome::kTruncatedCancelled)) {
    return Status::IOError("unknown run outcome " + std::to_string(b));
  }
  st.outcome = static_cast<RunOutcome>(b);
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.shed_index_pairs = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.shed_posting_entries = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.deferred_candidate_groups = u;
  HERA_RETURN_NOT_OK(r.GetU8(&b));
  st.join_truncated = b != 0;
  uint64_t count = 0;
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  st.merge_sequence.resize(count);
  for (auto& [i, j] : st.merge_sequence) {
    HERA_RETURN_NOT_OK(r.GetU32(&i));
    HERA_RETURN_NOT_OK(r.GetU32(&j));
  }

  HERA_RETURN_NOT_OK(r.GetU32(&s->indexed_watermark));
  HERA_RETURN_NOT_OK(r.GetU64(&s->join_shed_posting));
  HERA_RETURN_NOT_OK(r.GetF64(&s->simplified_nodes_sum));
  HERA_RETURN_NOT_OK(r.GetU64(&s->simplified_nodes_count));

  HERA_RETURN_NOT_OK(r.GetU64(&s->index_next_pid));
  HERA_RETURN_NOT_OK(r.GetU64(&s->index_probe_count));
  HERA_RETURN_NOT_OK(r.GetU64(&s->index_shed_pairs));
  HERA_RETURN_NOT_OK(r.GetU64(&s->index_shed_posting));
  HERA_RETURN_NOT_OK(r.GetU64(&s->num_predictions));

  HERA_RETURN_NOT_OK(r.GetU8(&b));
  s->loop_first_pass = b != 0;
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  s->loop_dirty.resize(count);
  for (uint32_t& rid : s->loop_dirty) HERA_RETURN_NOT_OK(r.GetU32(&rid));
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  s->loop_deferred.resize(count);
  for (auto& [a2, b2] : s->loop_deferred) {
    HERA_RETURN_NOT_OK(r.GetU32(&a2));
    HERA_RETURN_NOT_OK(r.GetU32(&b2));
  }

  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.shed_join_candidates = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.frontier_groups = u;
  HERA_RETURN_NOT_OK(r.GetU64(&u));
  st.budget_deferred_groups = u;
  if (!r.AtEnd()) return Status::IOError("trailing bytes in core section");
  return Status::OK();
}

std::string EncodeRecords(const EngineState& s) {
  ByteWriter w;
  w.PutU64(s.super_records.size());
  for (const SuperRecord& sr : s.super_records) {
    w.PutU32(sr.rid());
    w.PutU32(static_cast<uint32_t>(sr.members().size()));
    for (uint32_t m : sr.members()) w.PutU32(m);
    w.PutU32(static_cast<uint32_t>(sr.num_fields()));
    for (const Field& field : sr.fields()) {
      w.PutU32(static_cast<uint32_t>(field.size()));
      for (const FieldValue& fv : field.values()) {
        PutValue(&w, fv.value);
        w.PutU32(fv.origin.schema_id);
        w.PutU32(fv.origin.attr_index);
      }
    }
  }
  return w.Take();
}

Status DecodeRecords(std::string_view payload, EngineState* s) {
  ByteReader r(payload);
  uint64_t count = 0;
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  s->super_records.clear();
  s->super_records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rid = 0;
    HERA_RETURN_NOT_OK(r.GetU32(&rid));
    uint32_t num_members = 0;
    HERA_RETURN_NOT_OK(r.GetU32(&num_members));
    HERA_RETURN_NOT_OK(CheckCount(r, num_members));
    std::vector<uint32_t> members(num_members);
    for (uint32_t& m : members) HERA_RETURN_NOT_OK(r.GetU32(&m));
    uint32_t num_fields = 0;
    HERA_RETURN_NOT_OK(r.GetU32(&num_fields));
    HERA_RETURN_NOT_OK(CheckCount(r, num_fields));
    std::vector<Field> fields;
    fields.reserve(num_fields);
    for (uint32_t f = 0; f < num_fields; ++f) {
      uint32_t num_values = 0;
      HERA_RETURN_NOT_OK(r.GetU32(&num_values));
      HERA_RETURN_NOT_OK(CheckCount(r, num_values));
      std::vector<FieldValue> values;
      values.reserve(num_values);
      for (uint32_t v = 0; v < num_values; ++v) {
        FieldValue fv;
        HERA_RETURN_NOT_OK(GetValue(&r, &fv.value));
        HERA_RETURN_NOT_OK(r.GetU32(&fv.origin.schema_id));
        HERA_RETURN_NOT_OK(r.GetU32(&fv.origin.attr_index));
        values.push_back(std::move(fv));
      }
      fields.emplace_back(std::move(values));
    }
    s->super_records.push_back(
        SuperRecord::FromParts(rid, std::move(fields), std::move(members)));
  }
  if (!r.AtEnd()) return Status::IOError("trailing bytes in records section");
  return Status::OK();
}

std::string EncodeIndex(const EngineState& s) {
  ByteWriter w;
  w.PutU64(s.index_pairs.size());
  for (const IndexedPair& p : s.index_pairs) {
    w.PutU64(p.pid);
    PutLabel(&w, p.a);
    PutLabel(&w, p.b);
    w.PutF64(p.sim);
  }
  return w.Take();
}

Status DecodeIndex(std::string_view payload, EngineState* s) {
  ByteReader r(payload);
  uint64_t count = 0;
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  s->index_pairs.resize(count);
  for (IndexedPair& p : s->index_pairs) {
    HERA_RETURN_NOT_OK(r.GetU64(&p.pid));
    HERA_RETURN_NOT_OK(GetLabel(&r, &p.a));
    HERA_RETURN_NOT_OK(GetLabel(&r, &p.b));
    HERA_RETURN_NOT_OK(r.GetF64(&p.sim));
  }
  if (!r.AtEnd()) return Status::IOError("trailing bytes in index section");
  return Status::OK();
}

std::string EncodeVotes(const EngineState& s) {
  ByteWriter w;
  w.PutU64(s.votes.size());
  for (const ExportedVote& v : s.votes) {
    w.PutU32(v.attr.schema_id);
    w.PutU32(v.attr.attr_index);
    w.PutU32(v.other_schema);
    w.PutU64(v.total);
    w.PutU32(static_cast<uint32_t>(v.counts.size()));
    for (const auto& [partner, n] : v.counts) {
      w.PutU32(partner);
      w.PutU64(n);
    }
  }
  return w.Take();
}

Status DecodeVotes(std::string_view payload, EngineState* s) {
  ByteReader r(payload);
  uint64_t count = 0;
  HERA_RETURN_NOT_OK(r.GetU64(&count));
  HERA_RETURN_NOT_OK(CheckCount(r, count));
  s->votes.resize(count);
  for (ExportedVote& v : s->votes) {
    HERA_RETURN_NOT_OK(r.GetU32(&v.attr.schema_id));
    HERA_RETURN_NOT_OK(r.GetU32(&v.attr.attr_index));
    HERA_RETURN_NOT_OK(r.GetU32(&v.other_schema));
    HERA_RETURN_NOT_OK(r.GetU64(&v.total));
    uint32_t num_counts = 0;
    HERA_RETURN_NOT_OK(r.GetU32(&num_counts));
    HERA_RETURN_NOT_OK(CheckCount(r, num_counts));
    v.counts.resize(num_counts);
    for (auto& [partner, n] : v.counts) {
      HERA_RETURN_NOT_OK(r.GetU32(&partner));
      HERA_RETURN_NOT_OK(r.GetU64(&n));
    }
  }
  if (!r.AtEnd()) return Status::IOError("trailing bytes in votes section");
  return Status::OK();
}

}  // namespace

std::string EncodeSnapshot(const SnapshotHeader& header,
                           const EngineState& state) {
  std::string out;
  AppendBlock(&out, EncodeHeader(header));
  AppendBlock(&out, EncodeCore(state));
  AppendBlock(&out, EncodeRecords(state));
  AppendBlock(&out, EncodeIndex(state));
  AppendBlock(&out, EncodeVotes(state));
  return out;
}

StatusOr<DecodedSnapshot> DecodeSnapshot(std::string_view file) {
  DecodedSnapshot out;
  size_t pos = 0;
  std::string payload;

  Status st = ReadBlock(file, &pos, &payload);
  if (!st.ok()) return Status::IOError("snapshot header: " + st.message());
  HERA_RETURN_NOT_OK(DecodeHeader(payload, &out.header));

  st = ReadBlock(file, &pos, &payload);
  if (!st.ok()) return Status::IOError("snapshot core: " + st.message());
  HERA_RETURN_NOT_OK(DecodeCore(payload, &out.state));

  st = ReadBlock(file, &pos, &payload);
  if (!st.ok()) return Status::IOError("snapshot records: " + st.message());
  HERA_RETURN_NOT_OK(DecodeRecords(payload, &out.state));

  st = ReadBlock(file, &pos, &payload);
  if (!st.ok()) return Status::IOError("snapshot index: " + st.message());
  HERA_RETURN_NOT_OK(DecodeIndex(payload, &out.state));

  st = ReadBlock(file, &pos, &payload);
  if (!st.ok()) return Status::IOError("snapshot votes: " + st.message());
  HERA_RETURN_NOT_OK(DecodeVotes(payload, &out.state));

  if (pos != file.size()) {
    return Status::IOError("trailing bytes after snapshot votes section");
  }
  return out;
}

uint64_t FingerprintOptions(const HeraOptions& options) {
  Fnv1a f;
  f.MixString("hera-options-v1");
  f.MixF64(options.xi);
  f.MixF64(options.delta);
  // A custom black-box metric cannot be fingerprinted; record its
  // presence so at least metric-name/custom confusion is caught.
  if (options.similarity != nullptr) {
    f.MixString("<custom-similarity>");
  } else {
    f.MixString(options.metric);
  }
  f.MixU8(options.use_prefix_filter_join ? 1 : 0);
  f.MixU8(options.enable_schema_voting ? 1 : 0);
  f.MixF64(options.vote_prior_p);
  f.MixF64(options.vote_rho);
  f.MixU8(options.tight_bounds ? 1 : 0);
  return f.hash();
}

uint64_t FingerprintSchemas(const SchemaCatalog& schemas) {
  Fnv1a f;
  f.MixString("hera-schemas-v1");
  MixSchemas(&f, schemas);
  return f.hash();
}

uint64_t FingerprintDataset(const Dataset& dataset) {
  Fnv1a f;
  f.MixString("hera-dataset-v1");
  MixSchemas(&f, dataset.schemas());
  f.MixU64(dataset.size());
  for (const Record& rec : dataset.records()) {
    f.MixU32(rec.schema_id());
    f.MixU64(rec.size());
    for (const Value& v : rec.values()) MixValue(&f, v);
  }
  return f.hash();
}

}  // namespace persist
}  // namespace hera
