#include "sa/include_graph.hpp"

#include <algorithm>
#include <set>

#include "sa/rules.hpp"

namespace bf::sa {
namespace {

/// Collapse "." and ".." components of a '/'-separated path.
std::string normalize_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  const auto flush = [&] {
    if (cur.empty() || cur == ".") {
      cur.clear();
      return;
    }
    if (cur == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else {
      parts.push_back(cur);
    }
    cur.clear();
  };
  for (const char c : path) {
    if (c == '/') {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back('/');
    out += parts[i];
  }
  return out;
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

}  // namespace

const std::vector<LayerSpec>& layer_table() {
  // A module may include itself plus the listed modules; "*" allows
  // everything (the executable roots). Order is documentation order,
  // lowest layer first.
  static const std::vector<LayerSpec> kTable = {
      {"common", {}},
      {"sa", {"common"}},
      {"linalg", {"common"}},
      {"gpusim", {"common"}},
      {"cpusim", {"common", "gpusim"}},
      {"kernels", {"common", "gpusim"}},
      {"ml", {"common", "linalg"}},
      {"check", {"common", "linalg", "ml", "gpusim"}},
      {"guard", {"common", "linalg", "ml", "gpusim"}},
      {"profiling",
       {"common", "linalg", "ml", "gpusim", "cpusim", "kernels", "check"}},
      {"core",
       {"common", "linalg", "ml", "gpusim", "cpusim", "kernels", "check",
        "guard", "profiling"}},
      {"power",
       {"common", "linalg", "ml", "gpusim", "cpusim", "kernels", "check",
        "guard", "profiling", "core"}},
      {"report",
       {"common", "linalg", "ml", "gpusim", "check", "guard", "profiling",
        "core"}},
      {"serve",
       {"common", "linalg", "ml", "gpusim", "check", "guard", "profiling",
        "core", "power"}},
      {"tools", {"*"}},
      {"tests", {"*"}},
      {"bench", {"*"}},
      {"examples", {"*"}},
  };
  return kTable;
}

std::string module_of(const std::string& rel) {
  if (rel.rfind("src/", 0) == 0) {
    const auto slash = rel.find('/', 4);
    if (slash != std::string::npos) return rel.substr(4, slash - 4);
    return "";  // a file directly under src/ belongs to no module
  }
  const auto slash = rel.find('/');
  if (slash == std::string::npos) return "";
  const std::string root = rel.substr(0, slash);
  if (root == "tools" || root == "tests" || root == "bench" ||
      root == "examples") {
    return root;
  }
  return "";
}

std::vector<IncludeEdge> extract_includes(
    const LexedFile& file, const std::string& rel,
    const std::map<std::string, const LexedFile*>& known_files) {
  std::vector<IncludeEdge> edges;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!(toks[i].text == "#" && toks[i].at_line_start)) continue;
    if (toks[i + 1].text != "include") continue;
    const Token& target = toks[i + 2];
    if (target.kind != TokKind::kString) continue;  // <...> or macro
    if (target.text.size() < 2) continue;
    const std::string spelled =
        target.text.substr(1, target.text.size() - 2);
    // Resolution mirrors the build: quoted includes are relative to the
    // including file's directory first, then to the src/ include root.
    std::string resolved;
    const std::string sibling =
        normalize_path(dir_of(rel).empty() ? spelled
                                           : dir_of(rel) + "/" + spelled);
    if (known_files.count(sibling) != 0) {
      resolved = sibling;
    } else if (known_files.count(normalize_path("src/" + spelled)) != 0) {
      resolved = normalize_path("src/" + spelled);
    } else if (known_files.count(normalize_path(spelled)) != 0) {
      resolved = normalize_path(spelled);
    } else {
      continue;  // outside the scanned set (system / third-party)
    }
    IncludeEdge e;
    e.from = rel;
    e.to = resolved;
    e.spelled = spelled;
    e.line = target.line;
    edges.push_back(std::move(e));
  }
  return edges;
}

namespace {

const LayerSpec* layer_for(const std::string& module) {
  for (const auto& l : layer_table()) {
    if (module == l.module) return &l;
  }
  return nullptr;
}

bool edge_allowed(const std::string& from_mod, const std::string& to_mod) {
  if (from_mod.empty() || to_mod.empty()) return true;  // outside the DAG
  if (from_mod == to_mod) return true;
  const LayerSpec* spec = layer_for(from_mod);
  if (spec == nullptr) return true;  // unknown module: not enforced
  for (const char* allowed : spec->allowed) {
    if (to_mod == allowed || std::string(allowed) == "*") return true;
  }
  return false;
}

/// Iterative DFS cycle detection over the file-level graph. Each
/// distinct cycle is reported once, keyed by its canonical rotation.
void find_cycles(const std::map<std::string, std::vector<IncludeEdge>>& graph,
                 std::vector<Finding>& out) {
  std::set<std::string> done;       // fully explored
  std::set<std::string> reported;   // canonical cycle keys
  for (const auto& [start, unused] : graph) {
    (void)unused;
    if (done.count(start) != 0) continue;
    // Path-based DFS with explicit stack of (node, next edge index).
    std::vector<std::pair<std::string, std::size_t>> stack;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    stack.push_back({start, 0});
    path.push_back(start);
    on_path.insert(start);
    while (!stack.empty()) {
      auto& [node, idx] = stack.back();
      const auto it = graph.find(node);
      const auto& edges =
          it == graph.end() ? std::vector<IncludeEdge>{} : it->second;
      if (idx >= edges.size()) {
        done.insert(node);
        on_path.erase(node);
        path.pop_back();
        stack.pop_back();
        continue;
      }
      const IncludeEdge& e = edges[idx++];
      if (on_path.count(e.to) != 0) {
        // Cycle: path from e.to to node, closed by this edge.
        const auto begin =
            std::find(path.begin(), path.end(), e.to);
        std::vector<std::string> cycle(begin, path.end());
        // Canonical rotation: start at the lexicographically smallest.
        const auto min_it = std::min_element(cycle.begin(), cycle.end());
        std::rotate(cycle.begin(), min_it, cycle.end());
        // Closed chain `a -> b -> a`: no trailing separator, so the
        // detail survives the whitespace-trimming baseline parser.
        std::string key;
        for (const auto& n : cycle) key += n + " -> ";
        key += cycle.front();
        if (reported.insert(key).second) {
          Finding f;
          f.file = e.from;
          f.line = e.line;
          f.rule = "include-cycle";
          f.message = "#include cycle: " + key;
          f.detail = key;
          out.push_back(std::move(f));
        }
        continue;
      }
      if (done.count(e.to) != 0) continue;
      stack.push_back({e.to, 0});
      path.push_back(e.to);
      on_path.insert(e.to);
    }
  }
}

}  // namespace

void run_include_graph(
    const std::map<std::string, const LexedFile*>& files_by_rel,
    std::vector<Finding>& out) {
  std::map<std::string, std::vector<IncludeEdge>> graph;
  for (const auto& [rel, file] : files_by_rel) {
    std::vector<IncludeEdge> edges =
        extract_includes(*file, rel, files_by_rel);
    // duplicate-include: the same resolved target twice in one file.
    std::set<std::string> seen;
    for (const auto& e : edges) {
      if (!seen.insert(e.to).second) {
        Finding f;
        f.file = rel;
        f.line = e.line;
        f.rule = "duplicate-include";
        f.message = "'" + e.spelled + "' is already included above";
        f.detail = e.to;
        out.push_back(std::move(f));
      }
    }
    // layer-dag: module edge must be allowed by the table.
    const std::string from_mod = module_of(rel);
    for (const auto& e : edges) {
      const std::string to_mod = module_of(e.to);
      if (!edge_allowed(from_mod, to_mod)) {
        Finding f;
        f.file = rel;
        f.line = e.line;
        f.rule = "layer-dag";
        f.message = "layer '" + from_mod + "' may not include from layer '" +
                    to_mod + "' (" + e.spelled +
                    "); see the layer table in sa/include_graph.cpp";
        f.detail = from_mod + "->" + to_mod + ":" + e.to;
        out.push_back(std::move(f));
      }
    }
    graph[rel] = std::move(edges);
  }
  find_cycles(graph, out);
}

}  // namespace bf::sa
