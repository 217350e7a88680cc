// Compact record representation of the fixed photon schema, and the
// batch container the engine hands between operators. The paper's premise
// is that sharing saves network and CPU; per-item DOM trees drown those
// savings in allocation, so items conforming to the photon DTD
//
//   photon { phc, coord { cel { ra, dec }, det { dx, dy } }, en, det_time }
//
// travel as flat PhotonRecords: a presence bitmask over the 11 schema
// nodes (document order) plus inline leaf texts with their parsed decimal
// values. Selection evaluates compiled predicates on the decimals,
// projection is a mask intersection, link/sink byte accounting and the
// content hash are computed straight from the mask and texts — all
// byte-identical to what the DOM path produces, which the differential
// oracle enforces. Items that do not conform (wagg aggregates, window
// contents, malformed photons) ride along in the same batch as opaque XML
// slots and take the operators' DOM path.
//
// Results a compiled return program builds from record slots travel as a
// third kind, encoded slots: a reference to the item's self-contained
// encoding (engine/codec.h ItemWriter) in the deployment's result store
// (engine/result_store.h), with its XML serialized size and content hash
// next to it, so links bill, sinks hash and sinks keep it without ever
// building a tree or copying its bytes.
//
// XML trees are materialized lazily: only window contents, restructuring
// on the DOM path and other tree-shaped consumers pay for a DOM, and a
// slot caches its materialization so fan-out shares one tree.

#ifndef STREAMSHARE_ENGINE_RECORD_H_
#define STREAMSHARE_ENGINE_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/decimal.h"
#include "common/status.h"
#include "engine/item.h"
#include "engine/latency.h"
#include "predicate/atomic.h"
#include "xml/path.h"
#include "xml/xml_node.h"

namespace streamshare::engine {

/// The item content hash: FNV-1a over each node's name, then its text,
/// in pre-order, starting from kContentHashSeed. HashItemContent,
/// PhotonRecord::ContentHash and the codec's ItemWriter all mix through
/// this, so the three agree exactly.
inline constexpr uint64_t kContentHashSeed = 14695981039346656037ull;
uint64_t MixContentHash(uint64_t hash, std::string_view bytes);

/// Order-sensitive structural hash of one item (names, texts, children in
/// pre-order). Sinks sum these per item into an order-insensitive
/// aggregate.
uint64_t HashItemContent(const xml::XmlNode& item);

/// Static tables of the photon schema. Node ids are document order.
struct PhotonSchema {
  static constexpr int kNodeCount = 11;
  static constexpr int kFieldCount = 7;  // leaves, in document order

  // Node ids in document order.
  static constexpr int kPhoton = 0;
  static constexpr int kPhc = 1;
  static constexpr int kCoord = 2;
  static constexpr int kCel = 3;
  static constexpr int kRa = 4;
  static constexpr int kDec = 5;
  static constexpr int kDet = 6;
  static constexpr int kDx = 7;
  static constexpr int kDy = 8;
  static constexpr int kEn = 9;
  static constexpr int kDetTime = 10;

  // Field indices (leaves in document order).
  static constexpr int kFieldPhc = 0;
  static constexpr int kFieldRa = 1;
  static constexpr int kFieldDec = 2;
  static constexpr int kFieldDx = 3;
  static constexpr int kFieldDy = 4;
  static constexpr int kFieldEn = 5;
  static constexpr int kFieldDetTime = 6;

  static constexpr uint16_t kRootBit = 1;
  static constexpr uint16_t kFullMask = (1u << kNodeCount) - 1;

  /// Tag name of each node.
  static std::string_view Name(int node);
  /// Parent node id (-1 for the root).
  static int Parent(int node);
  /// Child node ids in document order (empty span for leaves).
  static std::span<const int> Children(int node);
  /// Field index of a leaf node, -1 for structural nodes.
  static int FieldOf(int node);
  /// Leaf node id of a field index.
  static int NodeOf(int field);

  /// Resolves a child-axis path (relative to <photon>) to a schema node
  /// id, or -1 when the path leaves the schema. The empty path resolves
  /// to the root.
  static int Resolve(const xml::Path& path);
};

/// A reference to one encoded result in a ResultStore: the address of its
/// entry (a varint length, then the self-contained encoding). Eight bytes,
/// so a sink keeps one per delivery; the entry stays where it is for the
/// store's life.
class ResultRef {
 public:
  ResultRef() = default;
  explicit ResultRef(const char* entry) : entry_(entry) {}

  bool valid() const { return entry_ != nullptr; }
  /// The self-contained encoding the entry holds.
  std::string_view bytes() const;

 private:
  const char* entry_ = nullptr;
};

/// One encoded result as its producer hands it on: the reference, and the
/// XmlNode::SerializedSize() and HashItemContent() of the item it encodes.
struct EncodedResult {
  ResultRef ref;
  uint32_t xml_size = 0;
  uint64_t content_hash = 0;
};

/// One photon item as a flat record. Trivially copyable; leaf texts are
/// stored inline exactly as they appeared in the XML (materialization and
/// byte accounting reproduce them verbatim), next to the decimal value
/// predicates and aggregations consume.
class PhotonRecord {
 public:
  /// Longest leaf text carried inline; photons with longer texts fall
  /// back to the XML representation.
  static constexpr size_t kMaxFieldText = 30;

  PhotonRecord() = default;

  /// Presence mask over the schema nodes (bit i = node i present).
  uint16_t mask() const { return mask_; }
  bool has_node(int node) const { return (mask_ >> node) & 1; }
  bool has_field(int field) const {
    return has_node(PhotonSchema::NodeOf(field));
  }

  /// Raw text of a present leaf field.
  std::string_view text(int field) const {
    return std::string_view(fields_[field].text, fields_[field].len);
  }
  /// Parsed decimal value of a present leaf field.
  const Decimal& value(int field) const { return fields_[field].value; }

  /// Sets a leaf field (marks the node, and its ancestors, present).
  /// `text` must fit kMaxFieldText; `value` must be Decimal::Parse of the
  /// trimmed text.
  void SetField(int field, std::string_view text, const Decimal& value);

  /// Marks a structural node (and its ancestors) present without a value
  /// — empty structural elements survive projection, so decoders need it.
  void MarkNode(int node);

  /// Converts a DOM item. Returns false (leaving *out untouched) when the
  /// item does not conform: wrong root, children out of document order or
  /// duplicated, unexpected names, text on structural nodes, leaf text
  /// that is over-long or not a decimal.
  static bool FromXml(const xml::XmlNode& item, PhotonRecord* out);

  /// Rebuilds the exact XML tree this record was adopted from (or would
  /// serialize as): present nodes in document order, leaf texts verbatim.
  std::unique_ptr<xml::XmlNode> MaterializeXml() const;

  /// Serialized size in bytes, matching XmlNode::SerializedSize() of the
  /// materialized tree. Cached (records are immutable once flowing).
  size_t SerializedSize() const;

  /// Content hash matching HashItemContent() of the materialized tree.
  uint64_t ContentHash() const;

  /// The record with only `keep_mask` nodes (root always kept); the
  /// counterpart of ProjectOp on the materialized tree.
  PhotonRecord Project(uint16_t keep_mask) const;

 private:
  struct Field {
    Decimal value;
    uint8_t len = 0;
    char text[kMaxFieldText];
  };

  uint16_t mask_ = PhotonSchema::kRootBit;
  /// 0 = not yet computed (a record never serializes to 0 bytes).
  mutable uint32_t size_cache_ = 0;
  Field fields_[PhotonSchema::kFieldCount];
};

/// A batch of stream items: each slot is a PhotonRecord, an opaque XML
/// item, or an encoded result, with a lazily-filled materialization cache
/// so fan-out consumers share one DOM tree. Batches flow by pointer;
/// receivers may Materialize (filling the cache) but must not otherwise
/// mutate a batch they were pushed.
///
/// Only RestructureOp's compiled programs emit encoded slots, and only
/// sinks and links consume them; anything
/// that needs the tree reads it through Materialize.
class ItemBatch {
 public:
  struct Slot {
    PhotonRecord record;  // meaningful iff is_record
    /// The opaque item (neither record nor encoded), or the cached
    /// materialization of a record or encoded slot (null until first
    /// Materialize).
    ItemPtr item;
    bool is_record = false;
    /// Encoded slot (encoded.ref.valid()): the item's self-contained
    /// encoding in the result store, with its XML size and content hash.
    EncodedResult encoded;
    /// Measured-latency stamp (latency.h). Unstamped by default; the
    /// executor stamps freshly fed slots, AppendSlot forwards the stamp,
    /// and operators that build new slots copy it explicitly. Excluded
    /// from content hashes and equality — stamps never change results.
    latency::ItemStamp stamp;
    /// The fed item this slot derives from (ResultStore::BeginSourceBatch
    /// numbers every fed slot; 0 = none). Carried like the stamp; with the
    /// record mask it identifies a record's content, which is what lets
    /// restructuring share one encoding among queries.
    uint64_t origin = 0;

    bool is_encoded() const { return encoded.ref.valid(); }
  };

  ItemBatch() = default;

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  void clear() { slots_.clear(); }
  void reserve(size_t n) { slots_.reserve(n); }

  const Slot& slot(size_t i) const { return slots_[i]; }
  Slot& slot(size_t i) { return slots_[i]; }

  void AppendRecord(const PhotonRecord& record) {
    Slot slot;
    slot.record = record;
    slot.is_record = true;
    slots_.push_back(std::move(slot));
  }
  /// Appends an XML item carrying `stamp`; with `adopt`,
  /// photon-conforming items are converted to records (the item pointer
  /// is kept as the ready-made materialization, so adopting never loses
  /// the original tree).
  void AppendItem(const ItemPtr& item, bool adopt,
                  const latency::ItemStamp& stamp = {});
  /// Appends a copy of slot `i` of `from` (forwarding; an encoded slot
  /// copies its reference, not its bytes).
  void AppendSlot(const ItemBatch& from, size_t i) {
    slots_.push_back(from.slots_[i]);
  }

  /// Appends an encoded slot for `result` carrying `stamp`.
  void AppendEncoded(const EncodedResult& result,
                     const latency::ItemStamp& stamp);
  /// The self-contained encoding of encoded slot `i`.
  std::string_view encoded(size_t i) const {
    return slots_[i].encoded.ref.bytes();
  }

  /// The XML tree of slot `i`, materializing (and caching) record and
  /// encoded slots on first use — the one place encoded slots decode.
  const ItemPtr& Materialize(size_t i);

  /// Stamps every still-unstamped slot with ingress tick `now` — the
  /// feed's one clock read per batch.
  void StampIngress(uint64_t now) {
    for (Slot& slot : slots_) {
      if (!slot.stamp.stamped()) slot.stamp.ingress_us = now;
    }
  }

  /// Materializes every record and encoded slot and marks it opaque, so
  /// operators evaluate the whole batch on trees (the DOM reference
  /// configuration).
  void MakeOpaque();

  /// Wraps a list of DOM items (see AppendItem for `adopt`).
  static ItemBatch FromItems(std::span<const ItemPtr> items, bool adopt);

 private:
  std::vector<Slot> slots_;
};

/// Decodes one self-contained item encoding this process wrote (an
/// encoded slot, a sink's log entry).
ItemPtr DecodeEncodedItem(std::string_view bytes);

/// XmlNode::SerializedSize() of a slot's item, without materializing it.
size_t SlotSerializedSize(const ItemBatch::Slot& slot);
/// HashItemContent() of a slot's item, without materializing it.
uint64_t SlotContentHash(const ItemBatch::Slot& slot);

/// One atomic predicate compiled against the photon schema: path lookups
/// become node-id checks, constants stay exact decimals. Evaluation over
/// a record reproduces predicate::EvaluatePredicate on the materialized
/// tree exactly, including NotFound-as-false and the ParseError raised by
/// structural (non-leaf) operands.
struct CompiledPredicate {
  int lhs_node = -1;  // -1: path leaves the schema (never found)
  int rhs_node = -2;  // -2: constant rhs; -1: never found
  predicate::ComparisonOp op = predicate::ComparisonOp::kEq;
  Decimal constant;
  /// Path strings for the ParseError message on structural operands.
  std::string lhs_path;
  std::string rhs_path;
};

/// Compiles a conjunction. The compiled form is schema-only (no per-item
/// state) and valid until the predicates change.
std::vector<CompiledPredicate> CompilePredicates(
    const std::vector<predicate::AtomicPredicate>& predicates);

/// Evaluates a compiled conjunction over one record (short-circuit, in
/// order, mirroring predicate::EvaluateConjunction).
Result<bool> EvalCompiledPredicates(
    const std::vector<CompiledPredicate>& predicates,
    const PhotonRecord& record);

/// predicate::ExtractValue over a record: same value and the exact same
/// error statuses (NotFound / ParseError, messages included) as running
/// it on the materialized tree. `node` is the precompiled
/// PhotonSchema::Resolve of the path (-1 when off-schema) and
/// `path_string` its ToString, both computed once per operator.
Result<Decimal> ExtractRecordValue(const PhotonRecord& record, int node,
                                   const std::string& path_string);

/// Compiles projection output paths to a keep mask: node kept iff some
/// output path covers it (the path is a prefix of the node's path) or
/// needs it as structure (the node's path is a prefix of the output
/// path). Intersecting a record's mask with this mask reproduces
/// ProjectOp on the materialized tree.
uint16_t CompileProjectionMask(const std::vector<xml::Path>& output_paths);

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_RECORD_H_
