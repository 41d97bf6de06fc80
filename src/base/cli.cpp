#include "base/cli.hpp"

#include <algorithm>
#include <cstdio>

#include "base/check.hpp"
#include "base/table.hpp"
#include "base/text.hpp"
#include "base/units.hpp"

namespace servet {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {
    add_flag("help", "show this help and exit");
}

void CliParser::add_flag(std::string name, std::string help) {
    add(std::move(name), std::move(help), "false", {.kind = Kind::Flag});
}

void CliParser::add_option(std::string name, std::string help, std::string default_value) {
    add(std::move(name), std::move(help), std::move(default_value), {.kind = Kind::Text});
}

void CliParser::add_int(std::string name, std::string help, std::string default_value,
                        long long lo, long long hi) {
    add(std::move(name), std::move(help), std::move(default_value),
        {.kind = Kind::Int, .int_lo = lo, .int_hi = hi});
}

void CliParser::add_number(std::string name, std::string help, std::string default_value,
                           double lo, Bound bound) {
    add(std::move(name), std::move(help), std::move(default_value),
        {.kind = Kind::Number, .number_lo = lo, .number_bound = bound});
}

void CliParser::add_bytes(std::string name, std::string help, std::string default_value) {
    add(std::move(name), std::move(help), std::move(default_value), {.kind = Kind::ByteSize});
}

void CliParser::add_choice(std::string name, std::string help, std::string default_value,
                           std::vector<std::string> choices) {
    add(std::move(name), std::move(help), std::move(default_value),
        {.kind = Kind::Choice, .choices = std::move(choices)});
}

void CliParser::add(std::string name, std::string help, std::string default_value,
                    Entry entry) {
    SERVET_CHECK_MSG(refusal(name, entry, default_value).empty(),
                     "option default does not fit its own type");
    entry.help = std::move(help);
    entry.value = default_value;
    entry.default_value = std::move(default_value);
    entries_.emplace(std::move(name), std::move(entry));
}

std::string CliParser::refusal(const std::string& name, const Entry& entry,
                               const std::string& value) {
    std::string expected;  // stays empty when `value` fits
    switch (entry.kind) {
        case Kind::Flag:
            if (value != "true" && value != "false") expected = "a boolean (true/false/1/0)";
            break;
        case Kind::Text:
            break;
        case Kind::Int: {
            const auto v = parse_int<long long>(value);
            if (v && *v >= entry.int_lo && *v <= entry.int_hi) break;
            expected = "an integer";
            if (entry.int_hi != std::numeric_limits<long long>::max())
                expected += strf(" in [%lld, %lld]", entry.int_lo, entry.int_hi);
            else if (entry.int_lo != std::numeric_limits<long long>::min())
                expected += strf(" >= %lld", entry.int_lo);
            break;
        }
        case Kind::Number: {
            const auto v = parse_finite(value);
            const bool exclusive = entry.number_bound == Bound::Exclusive;
            if (v && (exclusive ? *v > entry.number_lo : *v >= entry.number_lo)) break;
            expected = strf("a number %s %g", exclusive ? ">" : ">=", entry.number_lo);
            break;
        }
        case Kind::ByteSize:
            if (!parse_bytes(value)) expected = "a byte size (e.g. 4096, 16KB, 2MB)";
            break;
        case Kind::Choice:
            if (std::find(entry.choices.begin(), entry.choices.end(), value) !=
                entry.choices.end())
                break;
            for (const std::string& choice : entry.choices)
                expected += (expected.empty() ? "one of: " : ", ") + choice;
            return "unknown " + name + " '" + value + "' (--" + name + " expects " + expected +
                   ")";
    }
    if (expected.empty()) return "";
    return "--" + name + " must be " + expected + ", got '" + value + "'";
}

bool CliParser::parse(int argc, const char* const* argv) {
    const auto reject = [&](const std::string& diagnostic) {
        std::fprintf(stderr, "%s: %s\n", argv[0], diagnostic.c_str());
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        if (!arg.starts_with("--")) {
            positional_.emplace_back(arg);
            continue;
        }
        arg.remove_prefix(2);
        std::string key(arg);
        std::optional<std::string> inline_value;
        if (const auto eq = arg.find('='); eq != std::string_view::npos) {
            key = arg.substr(0, eq);
            inline_value = arg.substr(eq + 1);
        }
        const auto it = entries_.find(key);
        if (it == entries_.end()) return reject("unknown option --" + key + " (see --help)");
        Entry& entry = it->second;
        std::string value;
        if (entry.kind == Kind::Flag) {
            value = inline_value.value_or("true");
            if (value == "1") value = "true";
            if (value == "0") value = "false";
        } else if (inline_value) {
            value = *inline_value;
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return reject("option --" + key + " requires a value");
        }
        if (std::string why = refusal(key, entry, value); !why.empty()) return reject(why);
        entry.value = std::move(value);
        if (key == "help" && flag("help")) {
            std::fprintf(stderr, "%s", usage_text(argv[0]).c_str());
            return false;
        }
    }
    return true;
}

const CliParser::Entry& CliParser::lookup(std::string_view name) const {
    const auto it = entries_.find(name);
    SERVET_CHECK_MSG(it != entries_.end(), "reading an unregistered option");
    return it->second;
}

bool CliParser::flag(std::string_view name) const { return lookup(name).value == "true"; }

const std::string& CliParser::option(std::string_view name) const { return lookup(name).value; }

std::optional<long long> CliParser::option_int(std::string_view name) const {
    const Entry& entry = lookup(name);
    if (entry.kind == Kind::ByteSize) return static_cast<long long>(*parse_bytes(entry.value));
    return parse_int<long long>(entry.value);
}

std::optional<double> CliParser::option_double(std::string_view name) const {
    return parse_finite(option(name));
}

std::string CliParser::usage_text(std::string_view argv0) const {
    std::string out = description_ + "\n\nusage: " + std::string(argv0) +
                      " [options]\n\noptions:\n";
    char line[512];
    for (const auto& [name, entry] : entries_) {
        if (entry.kind == Kind::Flag) {
            std::snprintf(line, sizeof line, "  --%-22s %s\n", name.c_str(),
                          entry.help.c_str());
        } else {
            // The registered default, not the parsed value: `--help` next
            // to other options must not fold them into the usage text.
            const std::string label = name + " <v>";
            std::snprintf(line, sizeof line, "  --%-22s %s (default: %s)\n", label.c_str(),
                          entry.help.c_str(), entry.default_value.c_str());
        }
        out += line;
    }
    return out;
}

}  // namespace servet
