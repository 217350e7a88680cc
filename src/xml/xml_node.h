// A lightweight element-only XML tree. The paper restricts itself to
// element-structured XML (attributes are assumed converted to elements), so
// a node is an element with a tag name, an optional text payload, and child
// elements. One stream item (e.g. one <photon>) is one tree.

#ifndef STREAMSHARE_XML_XML_NODE_H_
#define STREAMSHARE_XML_XML_NODE_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace streamshare::xml {

/// An XML element. Owns its children. Mixed content is supported in the
/// limited form the system needs: a node has a text payload (concatenation
/// of its direct character data) and a list of child elements.
class XmlNode {
 public:
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const std::string& text() const { return text_; }
  void set_text(std::string text) {
    text_ = std::move(text);
    cached_size_.store(0, std::memory_order_relaxed);
  }
  void append_text(std::string_view text) {
    text_.append(text);
    cached_size_.store(0, std::memory_order_relaxed);
  }

  const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }

  /// Pre-sizes the child vector (decoders know the child count up front).
  void ReserveChildren(size_t n) { children_.reserve(n); }

  /// Appends a child element and returns a pointer to it (owned by this).
  XmlNode* AddChild(std::string name);
  /// Appends an already-built subtree.
  XmlNode* AddChild(std::unique_ptr<XmlNode> child);
  /// Convenience: appends <name>text</name>.
  XmlNode* AddLeaf(std::string name, std::string text);

  /// First child element with the given tag name, or nullptr.
  const XmlNode* FirstChild(std::string_view name) const;
  /// All child elements with the given tag name.
  std::vector<const XmlNode*> Children(std::string_view name) const;

  /// True if the node has no child elements (its value is its text).
  bool IsLeaf() const { return children_.empty(); }

  /// Deep copy of this subtree.
  std::unique_ptr<XmlNode> Clone() const;

  /// Structural equality: same name, same text, same children in order.
  bool Equals(const XmlNode& other) const;

  /// Total serialized size in bytes (tags + text), matching XmlWriter's
  /// compact output. Used by the cost model and traffic accounting.
  /// Memoized on first call: stream items are immutable once flowing, and
  /// every link and sink they cross re-asks for the size. Mutating this
  /// node invalidates its own cache but not an ancestor's — compute sizes
  /// only once a subtree is fully built (items are const after MakeItem).
  size_t SerializedSize() const;

  /// Tag-overhead bytes of one element in XmlWriter's compact form:
  /// `<name/>` when empty, `<name>…</name>` otherwise. The schema-based
  /// size estimators (cost model) delegate here so estimate and
  /// serialization agree on what a byte is.
  static size_t TagBytes(size_t name_size, bool empty) {
    return empty ? name_size + 3 : 2 * name_size + 5;
  }
  /// Size of `text` after escaping &, <, > as entities, matching
  /// XmlWriter's output.
  static size_t EscapedTextBytes(std::string_view text);

 private:
  std::string name_;
  std::string text_;
  std::vector<std::unique_ptr<XmlNode>> children_;
  /// 0 = not yet computed (a node never serializes to 0 bytes). Atomic so
  /// concurrent first calls are a benign double compute, not a data
  /// race.
  mutable std::atomic<size_t> cached_size_{0};
};

}  // namespace streamshare::xml

#endif  // STREAMSHARE_XML_XML_NODE_H_
