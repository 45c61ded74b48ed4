#include "common/token_reader.h"

#include <cmath>
#include <cstdlib>
#include <utility>

namespace faction {

TokenReader::TokenReader(std::istream& is, std::string decoder,
                         std::string source)
    : is_(is), decoder_(std::move(decoder)), source_(std::move(source)) {
  const std::streampos start = is_.tellg();
  if (start != std::streampos(-1) && is_.seekg(0, std::ios::end)) {
    end_ = static_cast<std::streamoff>(is_.tellg());
    is_.seekg(start);
  }
  is_.clear();
}

Status TokenReader::Fail(const std::string& what) {
  // A failed extraction sets failbit, under which tellg() returns -1;
  // clear first so the offset points at the stream position reached.
  is_.clear();
  const std::streamoff pos = static_cast<std::streamoff>(is_.tellg());
  std::string msg = decoder_ + ": " + what;
  if (!source_.empty()) msg += " in " + source_;
  if (pos >= 0) msg += " @byte " + std::to_string(static_cast<long long>(pos));
  return Status::InvalidArgument(std::move(msg));
}

Status TokenReader::Token(std::string* out, const char* what) {
  if (!(is_ >> *out)) return Fail(std::string("truncated ") + what);
  return Status::Ok();
}

Status TokenReader::Expect(const char* tag) {
  FACTION_RETURN_IF_ERROR(Token(&tok_, tag));
  if (tok_ == tag) return Status::Ok();
  return Fail(std::string("expected '") + tag + "', got '" + tok_ + "'");
}

Status TokenReader::ExpectRoom(std::size_t tokens, const char* what) {
  if (end_ < 0) return Status::Ok();
  const std::streamoff pos = static_cast<std::streamoff>(is_.tellg());
  const std::streamoff left = pos < 0 ? 0 : end_ - pos;
  if (tokens <= static_cast<std::size_t>(left + 1) / 2) return Status::Ok();
  return Fail(std::string("oversized ") + what);
}

Status TokenReader::Bad(const char* problem, const char* what) {
  return Fail(problem + std::string(what) + " '" + tok_ + "'");
}

Status TokenReader::ParseDouble(double* out, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(tok_.c_str(), &end);
  if (end == tok_.c_str() || *end != '\0') return Bad("bad ", what);
  if (std::isnan(v)) return Bad("non-finite ", what);
  *out = v;
  return Status::Ok();
}

}  // namespace faction
