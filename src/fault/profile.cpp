#include "fault/profile.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace vcopt::fault {

namespace {

FaultProfile preset(const std::string& name) {
  FaultProfile p;
  if (name == "none") return p;
  if (name == "light") {
    p.node_crashes = 1;
    p.transients = 1;
    return p;
  }
  if (name == "heavy") {
    p.node_crashes = 4;
    p.rack_outages = 1;
    p.transients = 2;
    p.mean_downtime = 30;
    return p;
  }
  throw std::invalid_argument("FaultProfile: unknown preset '" + name +
                              "' (expected none|light|heavy or key=value)");
}

double parse_number(const std::string& key, const std::string& value) {
  std::size_t used = 0;
  double out = 0;
  try {
    out = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != value.size() || value.empty()) {
    throw std::invalid_argument("FaultProfile: bad number '" + value +
                                "' for key '" + key + "'");
  }
  return out;
}

int parse_count(const std::string& key, const std::string& value) {
  // Range-check the double before converting: casting a value outside int's
  // range is undefined behaviour.
  const double d = parse_number(key, value);
  if (!(d >= 0 && d <= std::numeric_limits<int>::max()) || d != std::floor(d)) {
    throw std::invalid_argument("FaultProfile: key '" + key +
                                "' wants an integer in [0, " +
                                std::to_string(std::numeric_limits<int>::max()) +
                                "], got '" + value + "'");
  }
  return static_cast<int>(d);
}

std::uint64_t parse_seed(const std::string& key, const std::string& value) {
  // Digits only: stoull would accept a sign and wrap "-1" around.
  const bool digits =
      !value.empty() && std::all_of(value.begin(), value.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      });
  if (digits) {
    try {
      return std::stoull(value);
    } catch (const std::out_of_range&) {
    }
  }
  throw std::invalid_argument("FaultProfile: key '" + key +
                              "' wants an unsigned 64-bit integer, got '" +
                              value + "'");
}

void require_finite(const char* field, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument(std::string("FaultProfile: ") + field +
                                " must be finite");
  }
}

}  // namespace

void FaultProfile::validate() const {
  require_finite("horizon", horizon);
  require_finite("mean_downtime", mean_downtime);
  require_finite("transient_duration", transient_duration);
  require_finite("degrade_factor", degrade_factor);
  if (node_crashes < 0 || rack_outages < 0 || transients < 0) {
    throw std::invalid_argument("FaultProfile: negative event count");
  }
  if (horizon < 0) {
    throw std::invalid_argument("FaultProfile: negative horizon");
  }
  if (total_events() > 0 && mean_downtime <= 0) {
    throw std::invalid_argument("FaultProfile: mean_downtime must be > 0");
  }
  if (transients > 0 && transient_duration <= 0) {
    throw std::invalid_argument("FaultProfile: transient_duration must be > 0");
  }
  if (degrade_factor <= 0 || degrade_factor > 1) {
    throw std::invalid_argument("FaultProfile: degrade_factor outside (0, 1]");
  }
}

FaultProfile FaultProfile::parse(const std::string& spec) {
  std::vector<std::string> tokens;
  std::string tok;
  std::istringstream in(spec);
  while (std::getline(in, tok, ',')) {
    if (!tok.empty()) tokens.push_back(tok);
  }
  FaultProfile p;
  std::size_t first = 0;
  if (!tokens.empty() && tokens[0].find('=') == std::string::npos) {
    p = preset(tokens[0]);
    first = 1;
  }
  for (std::size_t i = first; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("FaultProfile: expected key=value, got '" +
                                  t + "'");
    }
    const std::string key = t.substr(0, eq);
    const std::string value = t.substr(eq + 1);
    if (key == "seed") {
      p.seed = parse_seed(key, value);
    } else if (key == "horizon") {
      p.horizon = parse_number(key, value);
    } else if (key == "crashes") {
      p.node_crashes = parse_count(key, value);
    } else if (key == "racks") {
      p.rack_outages = parse_count(key, value);
    } else if (key == "transients") {
      p.transients = parse_count(key, value);
    } else if (key == "mttr") {
      p.mean_downtime = parse_number(key, value);
    } else if (key == "transient-duration") {
      p.transient_duration = parse_number(key, value);
    } else if (key == "degrade") {
      p.degrade_factor = parse_number(key, value);
    } else {
      throw std::invalid_argument("FaultProfile: unknown key '" + key + "'");
    }
  }
  p.validate();
  return p;
}

std::string FaultProfile::describe() const {
  std::ostringstream os;
  os << "crashes=" << node_crashes << " racks=" << rack_outages
     << " transients=" << transients << " seed=" << seed
     << " horizon=" << horizon << " mttr=" << mean_downtime;
  return os.str();
}

}  // namespace vcopt::fault
