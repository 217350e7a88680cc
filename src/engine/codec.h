// Compact binary codec for stream items. One XmlNode serializes as
//
//   tag | varint(text length) | text bytes, raw | varint(#children) | children…
//
// where `tag` is a varint: an even value (id+1)<<1 references a name the
// link has seen before (~1 byte for the repeated element names that
// dominate stream items), an odd value (len<<1)|1 announces a literal
// name of `len` bytes that follows — and registers it, on both ends, in
// the link's dictionary while there is room. Text travels raw (no XML
// entity escaping), which together with the dictionary is where the
// bytes-on-wire win over xml_writer text comes from.
//
// Encoder and decoder dictionaries stay in lockstep because registration
// is deterministic: first-literal-appearance order, capped at the same
// size on both sides. A link restart must Reset() both ends together —
// a one-sided reset shows up as a decode error, not silent corruption.
//
// An item can also be encoded self-contained: with a dictionary of its
// own that starts empty, i.e. exactly the bytes a freshly Reset() encoder
// produces for it. Any Reset() decoder reads such an item with no state
// from earlier ones, so it can be stored once and shipped to any number
// of readers. ItemWriter produces that form node by node, without a tree.

#ifndef STREAMSHARE_ENGINE_CODEC_H_
#define STREAMSHARE_ENGINE_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/record.h"
#include "xml/xml_node.h"

namespace streamshare::engine {

/// Names a link remembers per direction; beyond this, names travel
/// literally every time. Both ends enforce the same cap.
inline constexpr size_t kMaxDictionaryNames = 4096;

/// Decoder safety rail against corrupted frames.
inline constexpr size_t kMaxDecodeDepth = 512;

/// Encodes a stream of items that share one name dictionary. Not
/// thread-safe; one encoder per stream.
class ItemEncoder {
 public:
  /// Appends the encoding of `node` to *out. Reserves using
  /// XmlNode::SerializedSize() — the text form bounds the binary form.
  void Encode(const xml::XmlNode& node, std::string* out);

  /// Drops the dictionary (link restart). The peer decoder must reset in
  /// the same place in the stream.
  void Reset();

  size_t dictionary_size() const { return ids_.size(); }

 private:
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  void EncodeNode(std::string_view name, std::string_view text,
                  uint64_t child_count, std::string* out);

  std::unordered_map<std::string, uint64_t, NameHash, std::equal_to<>> ids_;
};

/// Writes items in the self-contained form, node by node in pre-order
/// (each node announces its child count before its children), so a
/// producer that never had a tree — a compiled return program, a record —
/// writes its result without building one. The bytes equal
/// ItemEncoder::Encode of the same tree right after Reset(). Alongside
/// them the writer computes the tree's XmlNode::SerializedSize() and
/// HashItemContent(). Names are kept by view until the next
/// Begin, so they must outlive the item. Not thread-safe.
class ItemWriter {
 public:
  /// Starts a new item, appended to *out, with an empty dictionary.
  void Begin(std::string* out);
  /// Writes one node: its name, its text, and how many child nodes are
  /// written right after it.
  void Node(std::string_view name, std::string_view text,
            uint64_t child_count);
  /// Writes the subtree of `record` rooted at present schema node `node`.
  void Record(const PhotonRecord& record, int node);
  /// Writes the tree rooted at `node`.
  void Tree(const xml::XmlNode& node);

  /// XmlNode::SerializedSize() of the item written since Begin.
  size_t xml_size() const { return xml_size_; }
  /// HashItemContent() of the item written since Begin.
  uint64_t content_hash() const { return content_hash_; }

 private:
  std::string* out_ = nullptr;
  /// The item's dictionary: a result carries a handful of distinct
  /// names, so a linear scan beats hashing.
  std::vector<std::string_view> names_;
  size_t xml_size_ = 0;
  uint64_t content_hash_ = 0;
};

/// Decodes items from one link. Mirror-image dictionary of the peer's
/// ItemEncoder. Not thread-safe.
class ItemDecoder {
 public:
  /// Decodes one item occupying all of `data`. Fails on truncation,
  /// trailing bytes, unknown dictionary references (the symptom of a
  /// one-sided dictionary reset), or over-deep nesting.
  Status Decode(std::string_view data, std::unique_ptr<xml::XmlNode>* out);

  /// Drops the dictionary (link restart).
  void Reset();

  size_t dictionary_size() const { return names_.size(); }

 private:
  Status DecodeNode(std::string_view* data, size_t depth,
                    std::unique_ptr<xml::XmlNode>* out);

  std::vector<std::string> names_;
};

}  // namespace streamshare::engine

#endif  // STREAMSHARE_ENGINE_CODEC_H_
