#ifndef FACTION_COMMON_TOKEN_READER_H_
#define FACTION_COMMON_TOKEN_READER_H_

#include <charconv>
#include <cstddef>
#include <istream>
#include <string>
#include <system_error>
#include <type_traits>

#include "common/status.h"

namespace faction {

/// Whitespace-delimited token reader shared by the text decoders (session
/// checkpoints, model files, the checkpoint manifest). Every failure is an
/// InvalidArgument naming the decoder, the stream's source label (when one
/// was given), and the byte offset where parsing stopped, so a truncated
/// or corrupted file points at its own damage.
class TokenReader {
 public:
  /// `decoder` prefixes every error message; `source` names the stream (a
  /// path or a logical label; may be empty).
  TokenReader(std::istream& is, std::string decoder, std::string source);

  /// Builds the error for `what` at the current stream position.
  Status Fail(const std::string& what);

  /// Reads the next token into *out.
  Status Token(std::string* out, const char* what);

  /// Reads the next token and requires it to equal `tag`.
  Status Expect(const char* tag);

  /// Reads one value. A bool is a 0/1 token. An integer must parse in
  /// full and in range, with no sign on an unsigned type (istream
  /// extraction would wrap "-2" to 2^64-2). A double goes through strtod
  /// (hexfloat or decimal) and is never NaN; the infinities pass, since
  /// session mixture log-weights are -inf at zero mass.
  template <class T>
  Status Read(T* out, const char* what) {
    FACTION_RETURN_IF_ERROR(Token(&tok_, what));
    const char* end = tok_.data() + tok_.size();
    if constexpr (std::is_same_v<T, bool>) {
      if (tok_ != "0" && tok_ != "1") return Bad("non-boolean ", what);
      *out = tok_ == "1";
    } else if constexpr (std::is_floating_point_v<T>) {
      return ParseDouble(out, what);
    } else {
      const auto [ptr, err] = std::from_chars(tok_.data(), end, *out);
      if (err != std::errc() || ptr != end) return Bad("bad ", what);
    }
    return Status::Ok();
  }

  /// Fails with "oversized <what>" unless the rest of the stream can hold
  /// `tokens` more tokens (each needs a character and a separator), so a
  /// corrupt count cannot size an allocation beyond its input. Streams
  /// that cannot report their length are not checked.
  Status ExpectRoom(std::size_t tokens, const char* what);

 private:
  Status Bad(const char* problem, const char* what);
  Status ParseDouble(double* out, const char* what);

  std::istream& is_;
  std::string decoder_;
  std::string source_;
  std::string tok_;
  /// Byte offset of the stream's end, or -1 when it is not seekable.
  std::streamoff end_ = -1;
};

}  // namespace faction

#endif  // FACTION_COMMON_TOKEN_READER_H_
