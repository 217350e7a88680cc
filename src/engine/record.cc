#include "engine/record.h"

#include <cassert>

#include "common/string_util.h"
#include "predicate/eval.h"

namespace streamshare::engine {

namespace {

constexpr std::string_view kNames[PhotonSchema::kNodeCount] = {
    "photon", "phc", "coord", "cel", "ra", "dec",
    "det",    "dx",  "dy",    "en",  "det_time"};

constexpr int kParents[PhotonSchema::kNodeCount] = {-1, 0, 0, 2, 3, 3,
                                                    2,  6, 6, 0, 0};

constexpr int kPhotonChildren[] = {PhotonSchema::kPhc, PhotonSchema::kCoord,
                                   PhotonSchema::kEn,
                                   PhotonSchema::kDetTime};
constexpr int kCoordChildren[] = {PhotonSchema::kCel, PhotonSchema::kDet};
constexpr int kCelChildren[] = {PhotonSchema::kRa, PhotonSchema::kDec};
constexpr int kDetChildren[] = {PhotonSchema::kDx, PhotonSchema::kDy};

constexpr int kFieldOf[PhotonSchema::kNodeCount] = {-1, 0,  -1, -1, 1, 2,
                                                    -1, 3,  4,  5,  6};

constexpr int kNodeOf[PhotonSchema::kFieldCount] = {
    PhotonSchema::kPhc, PhotonSchema::kRa, PhotonSchema::kDec,
    PhotonSchema::kDx,  PhotonSchema::kDy, PhotonSchema::kEn,
    PhotonSchema::kDetTime};

// Same constants and mixing as operator.cc's sink hash, so
// PhotonRecord::ContentHash() equals HashItemContent() of the
// materialized tree byte for byte.
constexpr uint64_t kFnvSeed = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t MixBytes(uint64_t hash, std::string_view bytes) {
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  hash ^= 0xff;
  hash *= kFnvPrime;
  return hash;
}

}  // namespace

std::string_view PhotonSchema::Name(int node) { return kNames[node]; }

int PhotonSchema::Parent(int node) { return kParents[node]; }

std::span<const int> PhotonSchema::Children(int node) {
  switch (node) {
    case kPhoton:
      return kPhotonChildren;
    case kCoord:
      return kCoordChildren;
    case kCel:
      return kCelChildren;
    case kDet:
      return kDetChildren;
    default:
      return {};
  }
}

int PhotonSchema::FieldOf(int node) { return kFieldOf[node]; }

int PhotonSchema::NodeOf(int field) { return kNodeOf[field]; }

int PhotonSchema::Resolve(const xml::Path& path) {
  int node = kPhoton;
  for (const std::string& step : path.steps()) {
    int next = -1;
    for (int child : Children(node)) {
      if (Name(child) == step) {
        next = child;
        break;
      }
    }
    if (next < 0) return -1;
    node = next;
  }
  return node;
}

void PhotonRecord::SetField(int field, std::string_view text,
                            const Decimal& value) {
  assert(text.size() <= kMaxFieldText);
  Field& f = fields_[field];
  f.value = value;
  f.len = static_cast<uint8_t>(text.size());
  text.copy(f.text, text.size());
  MarkNode(PhotonSchema::NodeOf(field));
}

void PhotonRecord::MarkNode(int node) {
  for (; node >= 0; node = PhotonSchema::Parent(node)) {
    mask_ |= static_cast<uint16_t>(1u << node);
  }
  size_cache_ = 0;
}

bool PhotonRecord::FromXml(const xml::XmlNode& item, PhotonRecord* out) {
  if (item.name() != PhotonSchema::Name(PhotonSchema::kPhoton)) return false;
  PhotonRecord rec;
  // Children must be a subsequence of the schema's children in document
  // order (so sibling names are unique and EvaluateFirst, projection and
  // materialization are all exact over the mask).
  auto adopt = [&rec](auto&& self, const xml::XmlNode& x, int node) -> bool {
    int field = PhotonSchema::FieldOf(node);
    if (field >= 0) {
      if (!x.children().empty()) return false;
      if (x.text().size() > kMaxFieldText) return false;
      Result<Decimal> value = Decimal::Parse(Trim(x.text()));
      if (!value.ok()) return false;
      rec.SetField(field, x.text(), *value);
      return true;
    }
    if (!x.text().empty()) return false;
    rec.mask_ |= static_cast<uint16_t>(1u << node);
    std::span<const int> schema_children = PhotonSchema::Children(node);
    size_t k = 0;
    for (const auto& child : x.children()) {
      while (k < schema_children.size() &&
             PhotonSchema::Name(schema_children[k]) != child->name()) {
        ++k;
      }
      if (k == schema_children.size()) return false;
      if (!self(self, *child, schema_children[k])) return false;
      ++k;
    }
    return true;
  };
  if (!adopt(adopt, item, PhotonSchema::kPhoton)) return false;
  *out = rec;
  return true;
}

namespace {

std::unique_ptr<xml::XmlNode> BuildNode(const PhotonRecord& rec, int node) {
  auto built =
      std::make_unique<xml::XmlNode>(std::string(PhotonSchema::Name(node)));
  int field = PhotonSchema::FieldOf(node);
  if (field >= 0) {
    built->set_text(std::string(rec.text(field)));
    return built;
  }
  for (int child : PhotonSchema::Children(node)) {
    if (rec.has_node(child)) built->AddChild(BuildNode(rec, child));
  }
  return built;
}

}  // namespace

std::unique_ptr<xml::XmlNode> PhotonRecord::MaterializeXml() const {
  return BuildNode(*this, PhotonSchema::kPhoton);
}

std::unique_ptr<xml::XmlNode> PhotonRecord::MaterializeSubtree(
    int node) const {
  return BuildNode(*this, node);
}

size_t PhotonRecord::SerializedSize() const {
  if (size_cache_ != 0) return size_cache_;
  size_t size = 0;
  for (int node = 0; node < PhotonSchema::kNodeCount; ++node) {
    if (!has_node(node)) continue;
    int field = PhotonSchema::FieldOf(node);
    if (field >= 0) {
      std::string_view t = text(field);
      size += xml::XmlNode::TagBytes(PhotonSchema::Name(node).size(),
                                     t.empty()) +
              xml::XmlNode::EscapedTextBytes(t);
      continue;
    }
    bool empty = true;
    for (int child : PhotonSchema::Children(node)) {
      if (has_node(child)) {
        empty = false;
        break;
      }
    }
    size += xml::XmlNode::TagBytes(PhotonSchema::Name(node).size(), empty);
  }
  size_cache_ = static_cast<uint32_t>(size);
  return size;
}

namespace {

uint64_t HashNode(const PhotonRecord& rec, int node, uint64_t hash) {
  hash = MixBytes(hash, PhotonSchema::Name(node));
  int field = PhotonSchema::FieldOf(node);
  hash = MixBytes(hash, field >= 0 ? rec.text(field) : std::string_view());
  for (int child : PhotonSchema::Children(node)) {
    if (rec.has_node(child)) hash = HashNode(rec, child, hash);
  }
  return hash;
}

}  // namespace

uint64_t PhotonRecord::ContentHash() const {
  return HashNode(*this, PhotonSchema::kPhoton, kFnvSeed);
}

PhotonRecord PhotonRecord::Project(uint16_t keep_mask) const {
  PhotonRecord projected = *this;
  projected.mask_ = static_cast<uint16_t>((mask_ & keep_mask) |
                                          PhotonSchema::kRootBit);
  projected.size_cache_ = 0;
  return projected;
}

void ItemBatch::AppendItem(const ItemPtr& item, bool adopt,
                           const latency::ItemStamp& stamp) {
  Slot slot;
  slot.stamp = stamp;
  if (adopt && PhotonRecord::FromXml(*item, &slot.record)) {
    slot.is_record = true;
  }
  // Conforming items keep their original tree as the ready-made
  // materialization; opaque items are the tree.
  slot.item = item;
  slots_.push_back(std::move(slot));
}

const ItemPtr& ItemBatch::Materialize(size_t i) {
  Slot& slot = slots_[i];
  if (slot.item == nullptr) slot.item = MakeItem(slot.record.MaterializeXml());
  return slot.item;
}

void ItemBatch::MakeOpaque() {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Materialize(i);
    slots_[i].is_record = false;
  }
}

ItemBatch ItemBatch::FromItems(std::span<const ItemPtr> items, bool adopt) {
  ItemBatch batch;
  batch.reserve(items.size());
  for (const ItemPtr& item : items) batch.AppendItem(item, adopt);
  return batch;
}

std::vector<CompiledPredicate> CompilePredicates(
    const std::vector<predicate::AtomicPredicate>& predicates) {
  std::vector<CompiledPredicate> compiled;
  compiled.reserve(predicates.size());
  for (const predicate::AtomicPredicate& pred : predicates) {
    CompiledPredicate c;
    c.lhs_node = PhotonSchema::Resolve(pred.lhs);
    c.lhs_path = pred.lhs.ToString();
    c.op = pred.op;
    c.constant = pred.constant;
    if (pred.rhs_var.has_value()) {
      c.rhs_node = PhotonSchema::Resolve(*pred.rhs_var);
      c.rhs_path = pred.rhs_var->ToString();
    } else {
      c.rhs_node = -2;
    }
    compiled.push_back(std::move(c));
  }
  return compiled;
}

namespace {

// The exact ParseError ExtractValue raises on a structural operand: the
// node exists but its text is empty (conforming records never carry text
// on structural nodes), and empty text is not a decimal.
Status StructuralOperandError(const std::string& path) {
  return Status::ParseError("element '" + path +
                            "' does not contain a decimal value: ''");
}

}  // namespace

Result<bool> EvalCompiledPredicates(
    const std::vector<CompiledPredicate>& predicates,
    const PhotonRecord& record) {
  for (const CompiledPredicate& pred : predicates) {
    if (pred.lhs_node < 0 || !record.has_node(pred.lhs_node)) return false;
    int lhs_field = PhotonSchema::FieldOf(pred.lhs_node);
    if (lhs_field < 0) return StructuralOperandError(pred.lhs_path);
    const Decimal& lhs = record.value(lhs_field);
    Decimal rhs = pred.constant;
    if (pred.rhs_node != -2) {
      if (pred.rhs_node < 0 || !record.has_node(pred.rhs_node)) return false;
      int rhs_field = PhotonSchema::FieldOf(pred.rhs_node);
      if (rhs_field < 0) return StructuralOperandError(pred.rhs_path);
      rhs = record.value(rhs_field) + pred.constant;
    }
    if (!predicate::Compare(lhs, pred.op, rhs)) return false;
  }
  return true;
}

Result<Decimal> ExtractRecordValue(const PhotonRecord& record, int node,
                                   const std::string& path_string) {
  if (node < 0 || !record.has_node(node)) {
    return Status::NotFound("path '" + path_string +
                            "' selects no element in item <photon>");
  }
  int field = PhotonSchema::FieldOf(node);
  if (field < 0) return StructuralOperandError(path_string);
  return record.value(field);
}

uint16_t CompileProjectionMask(const std::vector<xml::Path>& output_paths) {
  uint16_t mask = PhotonSchema::kRootBit;
  for (int node = 1; node < PhotonSchema::kNodeCount; ++node) {
    std::vector<std::string> steps;
    for (int n = node; n != PhotonSchema::kPhoton;
         n = PhotonSchema::Parent(n)) {
      steps.insert(steps.begin(), std::string(PhotonSchema::Name(n)));
    }
    xml::Path node_path(std::move(steps));
    for (const xml::Path& out : output_paths) {
      if (out.IsPrefixOf(node_path) || node_path.IsPrefixOf(out)) {
        mask |= static_cast<uint16_t>(1u << node);
        break;
      }
    }
  }
  return mask;
}

}  // namespace streamshare::engine
