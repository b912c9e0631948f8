//! One command grammar for the `rfstudy` subcommands and the suite binary
//! `all`. Each command declares its options once, as a [`Grammar`]: each
//! option with its help line, its default and the values it accepts. One
//! parser checks a command line against it, reads the defaults from it,
//! and the usage text is rendered from it. On every command an
//! undeclared, repeated or value-less option, a missing required option
//! and a surplus positional argument are usage errors, on which both
//! binaries exit 2, and `--help` asks for the usage.

use std::fmt::Display;

/// Column the help text of an option line starts at.
const HELP_COLUMN: usize = 24;
/// Column usage lines wrap before.
const WIDTH: usize = 78;

/// A closed set of values named by their `Display`, such as a machine
/// enum's `ALL` or the suite's harnesses.
pub trait Choices: Sync {
    /// The names, in declaration order.
    fn names(&self) -> Vec<String>;
}

impl<T: Display + Sync, const N: usize> Choices for [T; N] {
    fn names(&self) -> Vec<String> {
        self.iter().map(T::to_string).collect()
    }
}

/// One declared option, written as a synopsis shows it: `--once` is a
/// flag, `--width N` takes a value, and brackets make it optional. A
/// positional argument is declared by its metavar (`ACTION`, `[COMMITS]`),
/// an environment knob by its variable (`RF_JOBS`).
///
/// The word and the help line may show the declaration's facts through
/// placeholders: `{default}` is the default, and `{a|b}`, `{a | b}`,
/// `{a, b}` and `{a, b, or c}` are the choices joined that way.
#[derive(Clone, Copy)]
pub struct Opt {
    /// The synopsis word, such as `[--width N]`.
    pub word: &'static str,
    /// The help line.
    pub help: &'static str,
    /// The value [`Args::req`] reads when the option is not given.
    pub default: Option<&'static (dyn Display + Sync)>,
    /// The values the option accepts, for the usage text.
    pub choices: Option<&'static dyn Choices>,
}

impl Opt {
    /// Declares `word` with its help line.
    pub const fn new(word: &'static str, help: &'static str) -> Self {
        Opt { word, help, default: None, choices: None }
    }

    /// With the default `value`.
    pub const fn default(self, value: &'static (dyn Display + Sync)) -> Self {
        Opt { default: Some(value), ..self }
    }

    /// With the accepted values `all`.
    pub const fn choices(self, all: &'static dyn Choices) -> Self {
        Opt { choices: Some(all), ..self }
    }

    /// `text` with the placeholders filled in.
    fn render(&self, text: &str) -> String {
        let names = self.choices.map_or_else(Vec::new, |c| c.names());
        let default = self.default.map_or_else(String::new, |d| d.to_string());
        text.replace("{default}", &default)
            .replace("{a|b}", &names.join("|"))
            .replace("{a | b}", &names.join(" | "))
            .replace("{a, b}", &names.join(", "))
            .replace("{a, b, or c}", &one_of(&names))
    }

    /// The word as a help line shows it: rendered, without its brackets.
    pub fn shown(&self) -> String {
        self.render(self.word.trim_start_matches('[').trim_end_matches(']'))
    }

    /// The option as typed, such as `--width`, or a positional's metavar.
    pub fn name(&self) -> &'static str {
        self.word.trim_start_matches('[').split([' ', ']']).next().unwrap_or_default()
    }

    /// Whether the option takes a value.
    pub fn takes_value(&self) -> bool {
        self.word.contains(' ')
    }

    /// Whether the command cannot run without it.
    pub fn required(&self) -> bool {
        !self.word.starts_with('[')
    }

    /// `  word    help`, the help starting at `column` and wrapped as wide
    /// as an option's; a word too long for its column gets a line of its
    /// own.
    pub fn help_line(&self, column: usize) -> String {
        let word = self.shown();
        let lead = if word.len() + 4 > column {
            format!("  {word}\n{:column$}", "")
        } else {
            format!("  {word:<w$}", w = column - 2)
        };
        let help = self.render(self.help);
        wrap(&lead, help.split(' ').map(str::to_owned), WIDTH - HELP_COLUMN + column)
    }
}

/// Options shared by several commands. A titled group is one `[title]`
/// word in a synopsis and gets its own help section.
#[derive(Clone, Copy)]
pub struct Group {
    /// The section title, if any.
    pub title: Option<&'static str>,
    /// The options, in usage order.
    pub opts: &'static [Opt],
}

impl Group {
    /// An untitled group.
    pub const fn of(opts: &'static [Opt]) -> Self {
        Group { title: None, opts }
    }

    /// One help line per option.
    pub fn help(&self) -> String {
        self.opts.iter().map(|o| o.help_line(HELP_COLUMN)).collect()
    }
}

/// `--deadline-secs`, shared by `all`, `run`, `check`, `model` and `profile`.
pub const DEADLINE: Group = Group::of(&[Opt::new(
    "[--deadline-secs S]",
    "wall-clock budget in seconds; an overrunning simulation is cancelled and the command exits 1",
)]);

/// One command's declaration.
#[derive(Clone, Copy)]
pub struct Grammar {
    /// The command's name.
    pub name: &'static str,
    /// Hand-written prose that follows its option lines in usage.
    pub about: &'static str,
    /// Its one positional argument, if any.
    pub positional: Option<Opt>,
    /// Its options, in usage order.
    pub groups: &'static [Group],
}

impl Grammar {
    /// A command without prose or positional argument.
    pub const fn new(name: &'static str, groups: &'static [Group]) -> Self {
        Grammar { name, about: "", positional: None, groups }
    }

    /// With the prose `about`.
    pub const fn about(self, about: &'static str) -> Self {
        Grammar { about, ..self }
    }

    /// With the positional argument `p`.
    pub const fn positional(self, p: Opt) -> Self {
        Grammar { positional: Some(p), ..self }
    }

    /// Every declared option, in usage order.
    pub fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.groups.iter().flat_map(|g| g.opts)
    }

    /// The option or positional argument `name`.
    fn opt(&self, name: &str) -> Option<&Opt> {
        let positional = self.positional.as_ref().filter(|p| p.name() == name);
        self.opts().find(|o| o.name() == name).or(positional)
    }

    /// Checks the words after the command's name, or returns the usage
    /// error; an unknown option is reported before any other fault.
    /// `Ok(None)` means `--help` is among the words: the caller prints
    /// the usage instead.
    pub fn parse(&self, argv: &[String]) -> Result<Option<Args<'_>>, String> {
        let name = self.name;
        if argv.iter().any(|w| w == "--help") {
            return Ok(None);
        }
        if let Some(bad) = argv.iter().find(|w| w.starts_with("--") && self.opt(w).is_none()) {
            return Err(format!("unknown option {bad:?} for {name}"));
        }
        let mut args = Args { grammar: self, given: Vec::new() };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let Some(opt) = self.opt(word).filter(|o| o.name().starts_with("--")) else {
                match self.positional {
                    Some(p) if !args.has(p.name()) => args.given.push((p.name(), word.clone())),
                    _ => return Err(format!("unexpected argument {word:?} for {name}")),
                }
                continue;
            };
            if args.has(opt.name()) {
                return Err(format!("repeated option {word:?} for {name}"));
            }
            let value = match opt.takes_value() {
                false => String::new(),
                true => words
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{word} requires a value"))?
                    .clone(),
            };
            args.given.push((opt.name(), value));
        }
        if let Some(p) = self.positional.filter(|p| p.required() && !args.has(p.name())) {
            return Err(format!("{name} requires {}", p.render(p.help)));
        }
        match self.opts().find(|o| o.required() && !args.has(o.name())) {
            Some(missing) => Err(format!("{name} requires {}", missing.name())),
            None => Ok(Some(args)),
        }
    }

    /// `lead`, then the positional argument, the options and one `[title]`
    /// per titled group, wrapped under `lead`.
    pub fn synopsis(&self, lead: &str) -> String {
        let groups = self.groups.iter().flat_map(|g| match g.title {
            Some(title) => vec![format!("[{title}]")],
            None => g.opts.iter().map(|o| o.render(o.word)).collect(),
        });
        wrap(lead, self.positional.iter().map(|p| p.word.to_owned()).chain(groups), WIDTH)
    }

    /// Help lines for the positional argument and the untitled groups.
    pub fn help(&self) -> String {
        let untitled = self.groups.iter().filter(|g| g.title.is_none()).flat_map(|g| g.opts);
        self.positional.iter().chain(untitled).map(|o| o.help_line(HELP_COLUMN)).collect()
    }
}

/// A command line checked against its [`Grammar`].
pub struct Args<'g> {
    grammar: &'g Grammar,
    /// The options and the positional argument given, by name.
    given: Vec<(&'static str, String)>,
}

impl Args<'_> {
    /// Whether the option was given.
    pub fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The option's value (empty for a flag), if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(self.grammar.opt(name).is_some(), "{name} is undeclared");
        self.given.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The option's value, if given, converted by `parse(name, value)`.
    pub fn get<'a, T>(
        &'a self,
        name: &str,
        parse: impl FnOnce(&str, &'a str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value(name).map(|v| parse(name, v)).transpose()
    }

    /// The option's value, else its declared default, converted by
    /// `parse(name, value)`; an option with neither is missing.
    pub fn req<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str, &str) -> Result<T, String>,
    ) -> Result<T, String> {
        let default = self.grammar.opt(name).and_then(|o| o.default).map(|d| d.to_string());
        match self.value(name).or(default.as_deref()) {
            Some(v) => parse(name, v),
            None => Err(format!("{} requires {name}", self.grammar.name)),
        }
    }
}

/// A parser of one of `all`'s names, or of the error
/// `unknown <what> "<v>" (expected a, b, or c)`.
pub fn choice<T: Copy + Display>(
    what: &'static str,
    all: &'static [T],
) -> impl Fn(&str, &str) -> Result<T, String> {
    move |_, v| match all.iter().find(|t| t.to_string() == v) {
        Some(&t) => Ok(t),
        None => {
            let names: Vec<String> = all.iter().map(T::to_string).collect();
            Err(format!("unknown {what} {v:?} (expected {})", one_of(&names)))
        }
    }
}

/// `n` if it is at least `min`, else the usage error naming `opt`.
pub fn at_least(opt: &str, n: u64, min: u64) -> Result<u64, String> {
    match n {
        n if n < min => Err(format!("{opt} {n} is below the minimum of {min}")),
        n => Ok(n),
    }
}

/// Checks a commit budget: from `all`'s argument, from `rfstudy check`,
/// `model` or `profile`'s `--commits`, or from `RF_COMMITS` for either.
/// A run of no commits has nothing to report, check or model.
pub fn commit_budget(n: u64) -> Result<u64, String> {
    at_least("--commits", n, 1)
}

/// `a`, `a or b`, `a, b, or c`.
fn one_of(names: &[String]) -> String {
    match names.split_last() {
        Some((last, [one])) => format!("{one} or {last}"),
        Some((last, init)) if !init.is_empty() => format!("{}, or {last}", init.join(", ")),
        _ => names.join(""),
    }
}

/// `lead` then `words`, wrapped before `width` with continuation lines
/// indented to the width of `lead`'s last line.
fn wrap(lead: &str, words: impl IntoIterator<Item = String>, width: usize) -> String {
    let indent = lead.rsplit('\n').next().unwrap_or(lead).chars().count();
    let (mut out, mut col) = (lead.to_owned(), indent);
    for word in words {
        let n = word.chars().count();
        if col > indent && col + 1 + n > width {
            out += &format!("\n{:indent$}", "");
            col = indent;
        } else if col > indent {
            out.push(' ');
            col += 1;
        }
        out += &word;
        col += n;
    }
    out.truncate(out.trim_end().len());
    out + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMATS: [&str; 2] = ["text", "json"];

    const TOP: Grammar = Grammar::new(
        "top",
        &[Group::of(&[
            Opt::new("[--file FILE]", "stream to follow (default {default})").default(&"live.jsonl"),
            Opt::new("[--format {a|b}]", "one of {a, b, or c}").choices(&FORMATS),
            Opt::new("[--once]", "render one frame and exit"),
        ])],
    );

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_checks_a_command_line_against_the_table() {
        let args = TOP.parse(&argv("--once --file live.jsonl")).unwrap().unwrap();
        assert!(args.has("--once"));
        assert_eq!(args.value("--file"), Some("live.jsonl"));
        for (line, err) in [
            ("--once --bogus", "unknown option \"--bogus\" for top"),
            ("--file --bogus", "unknown option \"--bogus\" for top"),
            ("--once --once", "repeated option \"--once\" for top"),
            ("--file", "--file requires a value"),
            ("--file --once", "--file requires a value"),
            ("extra", "unexpected argument \"extra\" for top"),
        ] {
            assert_eq!(TOP.parse(&argv(line)).err().unwrap(), err, "{line}");
        }
        let store = Grammar::new("store", &[]).positional(Opt::new("ACTION", "an action"));
        let compact = store.parse(&argv("compact")).unwrap().unwrap();
        assert_eq!(compact.req("ACTION", |_, v| Ok(v.to_owned())), Ok("compact".to_owned()));
        assert_eq!(store.parse(&[]).err().unwrap(), "store requires an action");
        let surplus = store.parse(&argv("compact compact")).err().unwrap();
        assert_eq!(surplus, "unexpected argument \"compact\" for store");
    }

    #[test]
    fn help_wins_over_every_other_word() {
        for line in ["--help", "--once --help", "--bogus --help", "--file --help", "x --help"] {
            assert!(TOP.parse(&argv(line)).unwrap().is_none(), "{line}");
        }
    }

    #[test]
    fn req_reads_the_declared_default() {
        let args = TOP.parse(&[]).unwrap().unwrap();
        let text = |_: &str, v: &str| Ok(v.to_owned());
        assert_eq!(args.req("--file", text), Ok("live.jsonl".to_owned()));
        assert_eq!(args.get("--file", text), Ok(None), "get reads given values only");
        assert_eq!(args.req("--format", text).unwrap_err(), "top requires --format");
    }

    #[test]
    fn choice_names_the_alternatives() {
        assert_eq!(choice("format", &FORMATS)("--format", "json"), Ok("json"));
        assert_eq!(
            choice("format", &FORMATS)("--format", "xml").unwrap_err(),
            "unknown format \"xml\" (expected text or json)"
        );
        const LETTERS: [char; 3] = ['a', 'b', 'c'];
        assert_eq!(
            choice("letter", &LETTERS)("", "z").unwrap_err(),
            "unknown letter \"z\" (expected a, b, or c)"
        );
    }

    #[test]
    fn a_commit_budget_is_at_least_one() {
        assert_eq!(commit_budget(1), Ok(1));
        assert_eq!(commit_budget(0).unwrap_err(), "--commits 0 is below the minimum of 1");
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        assert_eq!(
            TOP.synopsis("  top "),
            "  top [--file FILE] [--format text|json] [--once]\n"
        );
        let help: Vec<String> = TOP.help().lines().map(str::to_owned).collect();
        assert_eq!(help[0], "  --file FILE           stream to follow (default live.jsonl)");
        assert_eq!(help[1], "  --format text|json    one of text or json");
        assert_eq!(help[2], "  --once                render one frame and exit");
        let text = wrap("lead: ", (0..30).map(|i| format!("w{i}")), WIDTH);
        assert!(text.lines().all(|l| l.chars().count() <= WIDTH), "{text}");
        assert!(text.lines().skip(1).all(|l| l.starts_with("      w")), "{text}");
        assert!(text.ends_with("w29\n"));
        let knob = Opt::new("RF_LONG_KNOB_NAME", "help").help_line(18);
        assert_eq!(knob, "  RF_LONG_KNOB_NAME\n                  help\n");
    }
}
