#include "base/cli.hpp"

#include <gtest/gtest.h>

#include "platform/platform_file.hpp"

namespace servet {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
    std::vector<const char*> argv = {"prog"};
    argv.insert(argv.end(), args);
    return argv;
}

TEST(Cli, FlagDefaultsFalse) {
    CliParser cli("test");
    cli.add_flag("verbose", "be chatty");
    const auto argv = argv_of({});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(cli.flag("verbose"));
}

TEST(Cli, FlagSet) {
    CliParser cli("test");
    cli.add_flag("verbose", "be chatty");
    const auto argv = argv_of({"--verbose"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(cli.flag("verbose"));
}

TEST(Cli, FlagAcceptsBooleanSpellings) {
    // --flag=<v> for every accepted spelling; "=1" used to parse as false
    // because the stored value was compared verbatim against "true".
    const struct {
        const char* arg;
        bool expected;
    } cases[] = {
        {"--resume=true", true},
        {"--resume=1", true},
        {"--resume=false", false},
        {"--resume=0", false},
    };
    for (const auto& c : cases) {
        CliParser cli("test");
        cli.add_flag("resume", "resume the run");
        const auto argv = argv_of({c.arg});
        ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data())) << c.arg;
        EXPECT_EQ(cli.flag("resume"), c.expected) << c.arg;
    }
}

TEST(Cli, FlagRejectsNonBooleanValue) {
    for (const char* arg : {"--resume=yes", "--resume=2", "--resume=TRUE",
                            "--resume=garbage", "--resume="}) {
        CliParser cli("test");
        cli.add_flag("resume", "resume the run");
        const auto argv = argv_of({arg});
        EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data())) << arg;
    }
}

TEST(Cli, FlagBareStillTrue) {
    CliParser cli("test");
    cli.add_flag("resume", "resume the run");
    const auto argv = argv_of({"--resume"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_TRUE(cli.flag("resume"));
}

TEST(Cli, UsageShowsRegisteredDefaultNotParsedValue) {
    // --help alongside other options must print the registered default,
    // not whatever this invocation happened to pass.
    CliParser cli("test");
    cli.add_option("machine", "target machine", "dunnington");
    cli.add_flag("fast", "fewer repeats");
    const auto argv = argv_of({"--machine", "dempsey", "--fast"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option("machine"), "dempsey");  // parse still took effect
    const std::string usage = cli.usage_text("prog");
    EXPECT_NE(usage.find("default: dunnington"), std::string::npos) << usage;
    EXPECT_EQ(usage.find("default: dempsey"), std::string::npos) << usage;
}

TEST(Cli, OptionDefault) {
    CliParser cli("test");
    cli.add_option("machine", "target machine", "dunnington");
    const auto argv = argv_of({});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option("machine"), "dunnington");
}

TEST(Cli, OptionSeparateValue) {
    CliParser cli("test");
    cli.add_option("machine", "target machine", "dunnington");
    const auto argv = argv_of({"--machine", "dempsey"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option("machine"), "dempsey");
}

TEST(Cli, OptionEqualsValue) {
    CliParser cli("test");
    cli.add_option("machine", "target machine", "dunnington");
    const auto argv = argv_of({"--machine=athlon"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option("machine"), "athlon");
}

TEST(Cli, MissingValueFails) {
    CliParser cli("test");
    cli.add_option("machine", "target machine", "dunnington");
    const auto argv = argv_of({"--machine"});
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, UnknownOptionFails) {
    CliParser cli("test");
    const auto argv = argv_of({"--bogus"});
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, HelpReturnsFalse) {
    CliParser cli("test");
    const auto argv = argv_of({"--help"});
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(Cli, PositionalCollected) {
    CliParser cli("test");
    cli.add_flag("verbose", "chatty");
    const auto argv = argv_of({"input.txt", "--verbose", "more.txt"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    ASSERT_EQ(cli.positional().size(), 2u);
    EXPECT_EQ(cli.positional()[0], "input.txt");
    EXPECT_EQ(cli.positional()[1], "more.txt");
}

TEST(Cli, IntOptionParses) {
    CliParser cli("test");
    cli.add_option("cores", "core count", "4");
    const auto argv = argv_of({"--cores", "24"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_EQ(cli.option_int("cores"), 24);
}

TEST(Cli, IntOptionRejectsGarbage) {
    CliParser cli("test");
    cli.add_option("cores", "core count", "x");
    const auto argv = argv_of({});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_FALSE(cli.option_int("cores").has_value());
}

TEST(Cli, DoubleOptionParses) {
    CliParser cli("test");
    cli.add_option("threshold", "ratio", "2.0");
    const auto argv = argv_of({"--threshold=2.5"});
    ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
    EXPECT_DOUBLE_EQ(cli.option_double("threshold").value(), 2.5);
}

// ---- typed options: checked once, in parse() ----

/// One parser with an option of every type; defaults mirror real ones.
CliParser typed_parser() {
    CliParser cli("test");
    cli.add_int("jobs", "workers", "1", 1);
    cli.add_int("port", "tcp port", "0", 0, 65535);
    cli.add_number("timeout", "seconds", "10", 0, CliParser::Bound::Exclusive);
    cli.add_number("interval", "seconds", "0", 0);
    cli.add_bytes("size", "message size", "32KB");
    cli.add_choice("app", "pattern", "stencil", {"stencil", "ring"});
    return cli;
}

bool parses(CliParser& cli, std::initializer_list<const char*> args) {
    const auto argv = argv_of(args);
    return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, TypedDefaultsPassTheirOwnChecks) {
    CliParser cli = typed_parser();
    ASSERT_TRUE(parses(cli, {}));
    EXPECT_EQ(cli.option_int("jobs"), 1);
    EXPECT_EQ(cli.option_int("port"), 0);
    EXPECT_EQ(cli.option_double("timeout"), 10.0);
    EXPECT_EQ(cli.option_double("interval"), 0.0);
    EXPECT_EQ(cli.option_int("size"), 32 * 1024);  // byte sizes read in bytes
    EXPECT_EQ(cli.option("size"), "32KB");
    EXPECT_EQ(cli.option("app"), "stencil");
}

TEST(Cli, TypedOptionsRefuseMalformedValues) {
    for (const char* arg : {"--jobs=abc", "--jobs=2.5", "--jobs=", "--port=8080x",
                            "--timeout=soon", "--interval=", "--size=junk", "--size=-5KB",
                            "--size=12XB", "--app=typo", "--app=Stencil"}) {
        CliParser cli = typed_parser();
        EXPECT_FALSE(parses(cli, {arg})) << arg;
        EXPECT_FALSE(cli.flag("help")) << arg;
    }
}

TEST(Cli, TypedOptionsRefuseOutOfRangeValues) {
    for (const char* arg : {"--jobs=0", "--jobs=-3", "--port=-1", "--port=65536",
                            "--timeout=0", "--timeout=-1", "--interval=-0.5"}) {
        CliParser cli = typed_parser();
        EXPECT_FALSE(parses(cli, {arg})) << arg;
    }
    // The bounds themselves are in range.
    CliParser cli = typed_parser();
    ASSERT_TRUE(parses(cli, {"--jobs=1", "--port=65535", "--timeout=0.001", "--interval=0"}));
    EXPECT_EQ(cli.option_int("port"), 65535);
}

TEST(Cli, EqualsAndSeparateValueFormsAgree) {
    const struct {
        const char* name;
        const char* value;
    } cases[] = {{"jobs", "4"}, {"port", "8080"}, {"timeout", "2.5"}, {"interval", "1"},
                 {"size", "64KB"}, {"app", "ring"}, {"jobs", "x"}, {"size", "junk"},
                 {"app", "typo"}};
    for (const auto& c : cases) {
        const std::string flag = std::string("--") + c.name;
        const std::string joined = flag + "=" + c.value;
        CliParser separate = typed_parser();
        CliParser equals = typed_parser();
        const bool separate_ok = parses(separate, {flag.c_str(), c.value});
        EXPECT_EQ(parses(equals, {joined.c_str()}), separate_ok) << joined;
        if (!separate_ok) continue;
        EXPECT_EQ(equals.option(c.name), separate.option(c.name)) << joined;
        EXPECT_EQ(equals.option_int(c.name), separate.option_int(c.name)) << joined;
        EXPECT_EQ(equals.option_double(c.name), separate.option_double(c.name)) << joined;
    }
}

TEST(Cli, HelpIsDistinguishableFromAnError) {
    CliParser help = typed_parser();
    EXPECT_FALSE(parses(help, {"--help"}));
    EXPECT_TRUE(help.flag("help"));

    CliParser bad = typed_parser();
    EXPECT_FALSE(parses(bad, {"--jobs=0", "--help"}));
    EXPECT_FALSE(bad.flag("help"));
}

TEST(CliDeathTest, DefaultThatFailsItsOwnTypeAborts) {
    EXPECT_DEATH(
        {
            CliParser cli("test");
            cli.add_int("jobs", "workers", "0", 1);
        },
        "default");
}

// ---- platform files (the `servet profile --platform` input) ----

constexpr const char* kValidFatTree =
    "servet-platform 1\n"
    "name = t\n"
    "cores_per_node = 2\n"
    "\n"
    "[topology]\n"
    "kind = fat-tree\n"
    "arity = 2\n"
    "levels = 2\n"
    "\n"
    "[tier 0]\n"
    "name = edge\n"
    "hop_latency = 2e-6\n"
    "bandwidth = 1e9\n"
    "congestion = 0.3\n"
    "\n"
    "[tier 1]\n"
    "name = core\n"
    "hop_latency = 4e-6\n"
    "bandwidth = 5e8\n"
    "congestion = 0.4\n";

/// Error code of a failing parse; "" when the text parses.
std::string platform_error_code(const std::string& text) {
    PlatformError error;
    return parse_platform(text, &error) ? "" : error.code;
}

TEST(PlatformFile, ValidFatTreeParses) {
    PlatformError error;
    const auto machine = parse_platform(kValidFatTree, &error);
    ASSERT_TRUE(machine) << error.code << ": " << error.message;
    EXPECT_EQ(machine->name, "t");
    EXPECT_EQ(machine->n_cores, 8);  // 2^2 nodes x 2 cores
    EXPECT_EQ(machine->topology.kind, sim::TopologyKind::FatTree);
    ASSERT_EQ(machine->topology.tiers.size(), 2u);
    EXPECT_EQ(machine->topology.tiers[0].name, "edge");
    EXPECT_DOUBLE_EQ(machine->topology.tiers[1].hop_latency, 4e-6);
    EXPECT_TRUE(machine->validate().empty());
}

TEST(PlatformFile, MissingHeaderIsStableError) {
    EXPECT_EQ(platform_error_code("name = t\n"), "platform.header");
    EXPECT_EQ(platform_error_code("servet-platform 2\n"), "platform.header");
    EXPECT_EQ(platform_error_code(""), "platform.header");
}

TEST(PlatformFile, SyntaxErrorsAreStable) {
    EXPECT_EQ(platform_error_code("servet-platform 1\n[socket 9]\n"), "platform.syntax");
    EXPECT_EQ(platform_error_code("servet-platform 1\nwat\n"), "platform.syntax");
    EXPECT_EQ(platform_error_code("servet-platform 1\nflavor = mild\n"),
              "platform.syntax");
    // A platform with no [topology] section describes nothing.
    EXPECT_EQ(platform_error_code("servet-platform 1\nname = t\n"), "platform.syntax");
}

TEST(PlatformFile, BadFieldValuesAreStable) {
    EXPECT_EQ(platform_error_code("servet-platform 1\ncores_per_node = zero\n"),
              "platform.field");
    EXPECT_EQ(platform_error_code("servet-platform 1\ncores_per_node = -4\n"),
              "platform.field");
    EXPECT_EQ(platform_error_code("servet-platform 1\n[topology]\narity = huge\n"),
              "platform.field");
    // Non-finite, overflowing and out-of-range numbers are refused where
    // they stand, before a NaN can slip past a range check.
    for (const char* value : {"nan", "inf", "1e999"}) {
        EXPECT_EQ(platform_error_code(std::string("servet-platform 1\n[tier 0]\nhop_latency = ") +
                                      value + "\n"),
                  "platform.field")
            << value;
        EXPECT_EQ(platform_error_code(std::string("servet-platform 1\njitter = ") + value +
                                      "\n"),
                  "platform.field")
            << value;
    }
    EXPECT_EQ(platform_error_code("servet-platform 1\n[topology]\ndims = 4294967298,2\n"),
              "platform.field");
}

TEST(PlatformFile, UnknownKindIsStableError) {
    EXPECT_EQ(platform_error_code("servet-platform 1\n[topology]\nkind = hypercube\n"),
              "platform.kind");
    EXPECT_EQ(platform_error_code("servet-platform 1\n[topology]\nkind = none\n"),
              "platform.kind");
}

TEST(PlatformFile, NonPowerOfTwoFatTreeArity) {
    std::string text = kValidFatTree;
    const auto at = text.find("arity = 2");
    text.replace(at, 9, "arity = 3");
    EXPECT_EQ(platform_error_code(text), "platform.fattree.arity");
}

TEST(PlatformFile, MalformedTierCounts) {
    // Fewer tiers than the fat-tree's levels need.
    std::string missing = kValidFatTree;
    missing.resize(missing.find("[tier 1]"));
    EXPECT_EQ(platform_error_code(missing), "platform.tiers.count");

    // Non-contiguous tier indices.
    std::string gap = kValidFatTree;
    const auto at = gap.find("[tier 1]");
    gap.replace(at, 8, "[tier 2]");
    EXPECT_EQ(platform_error_code(gap), "platform.tiers.count");

    // No tier sections at all.
    std::string none = kValidFatTree;
    none.resize(none.find("[tier 0]"));
    EXPECT_EQ(platform_error_code(none), "platform.tiers.count");
}

TEST(PlatformFile, CustomLinkCycleIsStableError) {
    // Nodes 0,1; switches 2,3; the 0-3 link closes the cycle 0-2-3-0.
    const std::string text =
        "servet-platform 1\n"
        "[topology]\n"
        "kind = custom\n"
        "nodes = 2\n"
        "switches = 2\n"
        "links = 0-2:0;1-3:0;2-3:1;0-3:0\n"
        "[tier 0]\n"
        "name = leaf\n"
        "[tier 1]\n"
        "name = trunk\n";
    EXPECT_EQ(platform_error_code(text), "platform.links.cycle");
}

TEST(PlatformFile, LoadReportsMissingFile) {
    PlatformError error;
    EXPECT_FALSE(load_platform("/nonexistent/servet.platform", &error));
    EXPECT_EQ(error.code, "platform.io");
}

}  // namespace
}  // namespace servet
