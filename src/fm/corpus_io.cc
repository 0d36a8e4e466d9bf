#include "src/fm/corpus_io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/image/pnm_io.h"

namespace chameleon::fm {
namespace {

namespace filesystem = std::filesystem;

std::string ImagePath(const std::string& directory, int64_t payload_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "%06lld.ppm",
                static_cast<long long>(payload_id));
  return directory + "/images/" + name;
}

// Windows tooling that touches a corpus (editing a CSV, a git checkout
// with autocrlf) leaves \r\n line endings; std::getline only strips the
// \n, and the strict field parsers below would then reject the last
// field of every row. A bare \r is data, not a line ending — only the
// trailing one is dropped.
void StripTrailingCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

// Splits one CSV line (no quoting: the format never emits commas inside
// fields).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, ',')) fields.push_back(field);
  return fields;
}

// Strict numeric field parsers: the whole field must parse, so a
// truncated or corrupted row fails loudly instead of atoi-ing to 0 and
// producing a silently-wrong corpus.
bool ParseInt64(const std::string& field, int64_t* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(field.c_str(), &end, 10);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

bool ParseDouble(const std::string& field, double* out) {
  if (field.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(field.c_str(), &end);
  if (errno != 0 || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

util::Status WriteTextFile(const std::string& path,
                           const std::string& contents) {
  std::ofstream out(path);
  if (!out) return util::Status::IoError("cannot write " + path);
  out << contents;
  if (!out) return util::Status::IoError("write failed: " + path);
  return util::Status::Ok();
}

}  // namespace

util::Status SaveCorpus(const Corpus& corpus, const std::string& directory,
                        bool include_images) {
  std::error_code ec;
  filesystem::create_directories(directory, ec);
  if (ec) {
    return util::Status::IoError("cannot create directory " + directory +
                                 ": " + ec.message());
  }

  // schema.csv: one row per attribute.
  {
    std::ostringstream out;
    const auto& schema = corpus.dataset.schema();
    for (int a = 0; a < schema.num_attributes(); ++a) {
      const auto& attribute = schema.attribute(a);
      out << attribute.name << ',' << (attribute.ordinal ? 1 : 0);
      for (const auto& value : attribute.values) out << ',' << value;
      out << '\n';
    }
    CHAMELEON_RETURN_NOT_OK(
        WriteTextFile(directory + "/schema.csv", out.str()));
  }

  // tuples.csv: payload_id, synthetic, d values, K embedding entries.
  {
    std::ostringstream out;
    for (const auto& t : corpus.dataset.tuples()) {
      out << t.payload_id << ',' << (t.synthetic ? 1 : 0);
      for (int v : t.values) out << ',' << v;
      for (double e : t.embedding) out << ',' << e;
      out << '\n';
    }
    CHAMELEON_RETURN_NOT_OK(
        WriteTextFile(directory + "/tuples.csv", out.str()));
  }

  // realism.csv: payload_id, latent realism.
  {
    std::ostringstream out;
    for (size_t i = 0; i < corpus.realism.size(); ++i) {
      out << i << ',' << corpus.realism[i] << '\n';
    }
    CHAMELEON_RETURN_NOT_OK(
        WriteTextFile(directory + "/realism.csv", out.str()));
  }

  if (include_images && corpus.num_images() > 0) {
    filesystem::create_directories(directory + "/images", ec);
    if (ec) {
      return util::Status::IoError("cannot create images directory: " +
                                   ec.message());
    }
    for (size_t i = 0; i < corpus.num_images(); ++i) {
      const int64_t id = static_cast<int64_t>(i);
      CHAMELEON_RETURN_NOT_OK(
          image::WritePnm(corpus.image(id), ImagePath(directory, id)));
    }
  }
  return util::Status::Ok();
}

util::Result<Corpus> LoadCorpus(const std::string& directory) {
  Corpus corpus;

  // Schema.
  {
    std::ifstream in(directory + "/schema.csv");
    if (!in) {
      return util::Status::IoError("cannot read " + directory +
                                   "/schema.csv");
    }
    data::AttributeSchema schema;
    std::string line;
    while (std::getline(in, line)) {
      StripTrailingCr(&line);
      if (line.empty()) continue;
      const auto fields = SplitCsv(line);
      if (fields.size() < 4) {
        return util::Status::IoError("malformed schema row: " + line);
      }
      data::Attribute attribute;
      attribute.name = fields[0];
      attribute.ordinal = fields[1] == "1";
      attribute.values.assign(fields.begin() + 2, fields.end());
      CHAMELEON_RETURN_NOT_OK(schema.AddAttribute(std::move(attribute)));
    }
    corpus.dataset = data::Dataset(schema);
  }
  const int d = corpus.dataset.schema().num_attributes();

  // Realism (indexed by payload id).
  {
    std::ifstream in(directory + "/realism.csv");
    if (in) {
      std::string line;
      while (std::getline(in, line)) {
        StripTrailingCr(&line);
        if (line.empty()) continue;
        const auto fields = SplitCsv(line);
        int64_t row_id = 0;
        double realism = 0.0;
        if (fields.size() != 2 || !ParseInt64(fields[0], &row_id) ||
            !ParseDouble(fields[1], &realism) ||
            row_id != static_cast<int64_t>(corpus.realism.size())) {
          return util::Status::IoError("malformed realism row: " + line);
        }
        corpus.realism.push_back(realism);
      }
    }
  }

  // Images (optional).
  const bool have_images =
      filesystem::is_directory(directory + "/images");
  if (have_images) {
    for (size_t i = 0; i < corpus.realism.size(); ++i) {
      auto img = image::ReadPnm(ImagePath(directory, static_cast<int64_t>(i)));
      if (!img.ok()) return img.status();
      corpus.AddPayloadImage(std::move(*img));
    }
  }

  // Tuples.
  {
    std::ifstream in(directory + "/tuples.csv");
    if (!in) {
      return util::Status::IoError("cannot read " + directory +
                                   "/tuples.csv");
    }
    std::string line;
    // Embedding arity is fixed per corpus: the first row pins K and every
    // later row must agree, so a truncated tail row cannot slip through.
    int64_t embedding_dim = -1;
    while (std::getline(in, line)) {
      StripTrailingCr(&line);
      if (line.empty()) continue;
      const auto fields = SplitCsv(line);
      if (static_cast<int>(fields.size()) < 2 + d) {
        return util::Status::IoError("malformed tuple row: " + line);
      }
      data::Tuple tuple;
      if (!ParseInt64(fields[0], &tuple.payload_id)) {
        return util::Status::IoError("malformed tuple payload id: " + line);
      }
      if (fields[1] != "0" && fields[1] != "1") {
        return util::Status::IoError("malformed tuple synthetic flag: " +
                                     line);
      }
      tuple.synthetic = fields[1] == "1";
      for (int a = 0; a < d; ++a) {
        int64_t value = 0;
        if (!ParseInt64(fields[2 + a], &value)) {
          return util::Status::IoError("malformed tuple value: " + line);
        }
        tuple.values.push_back(static_cast<int>(value));
      }
      for (size_t f = 2 + d; f < fields.size(); ++f) {
        double entry = 0.0;
        if (!ParseDouble(fields[f], &entry)) {
          return util::Status::IoError("malformed tuple embedding: " + line);
        }
        tuple.embedding.push_back(entry);
      }
      const int64_t dim = static_cast<int64_t>(tuple.embedding.size());
      if (embedding_dim < 0) {
        embedding_dim = dim;
      } else if (dim != embedding_dim) {
        return util::Status::IoError(
            "inconsistent embedding arity (expected " +
            std::to_string(embedding_dim) + " entries): " + line);
      }
      if (have_images &&
          (tuple.payload_id < 0 ||
           tuple.payload_id >= static_cast<int64_t>(corpus.num_images()))) {
        return util::Status::IoError("tuple payload id out of range: " + line);
      }
      if (!have_images) tuple.payload_id = -1;
      const util::Status added = corpus.dataset.Add(std::move(tuple));
      if (!added.ok()) {
        // Schema-level rejection of on-disk data is still a corrupt file
        // from the caller's perspective: surface it as kIoError, never a
        // partial corpus.
        return util::Status::IoError("invalid tuple row (" + added.message() +
                                     "): " + line);
      }
    }
  }
  if (!have_images) corpus.realism.clear();
  return corpus;
}

}  // namespace chameleon::fm
