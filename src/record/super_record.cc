#include "record/super_record.h"

#include <algorithm>
#include <cassert>

namespace hera {

uint32_t Field::AddValue(FieldValue fv) {
  for (uint32_t i = 0; i < values_.size(); ++i) {
    if (values_[i].value == fv.value) return i;
  }
  values_.push_back(std::move(fv));
  return static_cast<uint32_t>(values_.size() - 1);
}

SuperRecord SuperRecord::FromRecord(const Record& record) {
  SuperRecord sr;
  sr.rid_ = record.id();
  sr.members_.push_back(record.id());
  for (uint32_t a = 0; a < record.size(); ++a) {
    const Value& v = record.value(a);
    if (v.is_null()) continue;
    Field f;
    f.AddValue(FieldValue{v, AttrRef{record.schema_id(), a}});
    sr.fields_.push_back(std::move(f));
  }
  return sr;
}

SuperRecord SuperRecord::Merge(
    const SuperRecord& a, const SuperRecord& b,
    const std::vector<FieldMatch>& matching, uint32_t new_rid,
    std::vector<std::pair<ValueLabel, ValueLabel>>* remap) {
  SuperRecord out;
  out.rid_ = new_rid;
  out.members_ = a.members_;
  out.members_.insert(out.members_.end(), b.members_.begin(), b.members_.end());
  std::sort(out.members_.begin(), out.members_.end());
  out.members_.erase(std::unique(out.members_.begin(), out.members_.end()),
                     out.members_.end());

  // a's fields come first, preserving order and value order; labels for
  // a's values change only in rid.
  out.fields_ = a.fields_;
  if (remap != nullptr) {
    for (uint32_t fi = 0; fi < a.fields_.size(); ++fi) {
      for (uint32_t vi = 0; vi < a.fields_[fi].size(); ++vi) {
        remap->push_back({ValueLabel{a.rid_, fi, vi},
                          ValueLabel{new_rid, fi, vi}});
      }
    }
  }

  // Which of b's fields merge into which of out's fields.
  std::vector<int64_t> target_of_b(b.num_fields(), -1);
  for (const FieldMatch& m : matching) {
    assert(m.field_a < a.num_fields());
    assert(m.field_b < b.num_fields());
    target_of_b[m.field_b] = static_cast<int64_t>(m.field_a);
  }

  for (uint32_t fb = 0; fb < b.num_fields(); ++fb) {
    uint32_t target;
    if (target_of_b[fb] >= 0) {
      target = static_cast<uint32_t>(target_of_b[fb]);
    } else {
      out.fields_.emplace_back();
      target = static_cast<uint32_t>(out.fields_.size() - 1);
    }
    for (uint32_t vb = 0; vb < b.field(fb).size(); ++vb) {
      uint32_t new_vid = out.fields_[target].AddValue(b.field(fb).value(vb));
      if (remap != nullptr) {
        remap->push_back({ValueLabel{b.rid_, fb, vb},
                          ValueLabel{new_rid, target, new_vid}});
      }
    }
  }
  return out;
}

SuperRecord SuperRecord::FromParts(uint32_t rid, std::vector<Field> fields,
                                   std::vector<uint32_t> members) {
  SuperRecord sr;
  sr.rid_ = rid;
  sr.fields_ = std::move(fields);
  sr.members_ = std::move(members);
  return sr;
}

size_t SuperRecord::NumValues() const {
  size_t n = 0;
  for (const auto& f : fields_) n += f.size();
  return n;
}

std::string SuperRecord::ToString() const {
  std::string out = "R";
  out.append(std::to_string(rid_)).append("{");
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out.append("f").append(std::to_string(i)).append(":[");
    for (size_t j = 0; j < fields_[i].size(); ++j) {
      if (j > 0) out += "|";
      out += fields_[i].value(j).value.ToString();
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace hera
