// Declarative command-line parser shared by the `servet` tool, the benches
// and the examples. Supports `--flag`, `--key value`, `--key=value` and
// positional arguments. A valued option may be declared with a type; parse()
// refuses a value that does not fit it, so after a successful parse a typed
// option's reader is always engaged.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace servet {

class CliParser {
  public:
    explicit CliParser(std::string program_description);

    /// Register a boolean flag (`--name`, or explicitly `--name=true`,
    /// `--name=false`, `--name=1`, `--name=0`; any other value is a parse
    /// error).
    void add_flag(std::string name, std::string help);

    /// Register a free-text valued option (`--name VALUE` or
    /// `--name=VALUE`) with a default shown in --help.
    void add_option(std::string name, std::string help, std::string default_value);

    /// Typed valued options. The default must fit the type itself (checked
    /// at registration), so the reader is engaged whether or not the option
    /// was given.
    ///
    /// An integer in [lo, hi], read with option_int().
    void add_int(std::string name, std::string help, std::string default_value,
                 long long lo = std::numeric_limits<long long>::min(),
                 long long hi = std::numeric_limits<long long>::max());
    /// A number >= lo (Inclusive) or > lo (Exclusive), read with option_double().
    enum class Bound { Inclusive, Exclusive };
    void add_number(std::string name, std::string help, std::string default_value, double lo,
                    Bound bound = Bound::Inclusive);
    /// A byte size such as 4096, 16KB or 2MiB; option_int() reads it in bytes.
    void add_bytes(std::string name, std::string help, std::string default_value);
    /// One of a fixed set of words, read with option().
    void add_choice(std::string name, std::string help, std::string default_value,
                    std::vector<std::string> choices);

    /// Parse argv left to right. Returns false after printing a diagnostic
    /// that names the option (unknown option, missing value, or a value
    /// that does not fit its type). `--help` prints usage and returns false
    /// with flag("help") set.
    [[nodiscard]] bool parse(int argc, const char* const* argv);

    [[nodiscard]] bool flag(std::string_view name) const;
    [[nodiscard]] const std::string& option(std::string_view name) const;
    [[nodiscard]] std::optional<long long> option_int(std::string_view name) const;
    [[nodiscard]] std::optional<double> option_double(std::string_view name) const;
    [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

    /// The --help text. Defaults shown are the registered ones, unchanged
    /// by any values parse() already applied.
    [[nodiscard]] std::string usage_text(std::string_view argv0) const;

  private:
    enum class Kind { Flag, Text, Int, Number, ByteSize, Choice };
    struct Entry {
        std::string help{};
        std::string value{};          // current value (default until parsed)
        std::string default_value{};  // registered default, frozen for --help
        Kind kind = Kind::Text;
        long long int_lo = 0, int_hi = 0;
        double number_lo = 0;
        Bound number_bound = Bound::Inclusive;
        std::vector<std::string> choices{};
    };

    void add(std::string name, std::string help, std::string default_value, Entry entry);
    [[nodiscard]] const Entry& lookup(std::string_view name) const;
    /// Why `value` does not fit the type of option `name`; "" when it does.
    [[nodiscard]] static std::string refusal(const std::string& name, const Entry& entry,
                                             const std::string& value);

    std::string description_;
    std::map<std::string, Entry, std::less<>> entries_;
    std::vector<std::string> positional_;
};

}  // namespace servet
