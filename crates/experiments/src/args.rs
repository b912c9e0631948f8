//! One command grammar for the `rfstudy` subcommands and the suite binary
//! `all`. Each command declares its options once, as a [`Grammar`]; one
//! parser checks a command line against it and the usage text is rendered
//! from it. On every command an undeclared, repeated or value-less option,
//! a missing required option and a surplus positional argument are usage
//! errors, on which both binaries exit 2.

/// Column the help text of an option line starts at.
const HELP_COLUMN: usize = 24;
/// Column usage lines wrap before.
const WIDTH: usize = 78;

/// One declared option, written as a synopsis shows it: `--once` is a
/// flag, `--width N` takes a value, and brackets make it optional. A
/// positional argument is declared by its metavar (`ACTION`, `[COMMITS]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opt {
    /// The synopsis word, such as `[--width N]`.
    pub word: &'static str,
    /// The help line.
    pub help: &'static str,
}

impl Opt {
    /// Declares `word` with its help line.
    pub const fn new(word: &'static str, help: &'static str) -> Self {
        Opt { word, help }
    }

    /// The word without its brackets, as a help line shows it.
    pub fn bare(&self) -> &'static str {
        self.word.trim_start_matches('[').trim_end_matches(']')
    }

    /// The option as typed, such as `--width`, or a positional's metavar.
    pub fn name(&self) -> &'static str {
        self.bare().split(' ').next().unwrap_or_default()
    }

    /// Whether the option takes a value.
    pub fn takes_value(&self) -> bool {
        self.bare().contains(' ')
    }

    /// Whether the command cannot run without it.
    pub fn required(&self) -> bool {
        !self.word.starts_with('[')
    }
}

/// Options shared by several commands. A titled group is one `[title]`
/// word in a synopsis and gets its own help section.
#[derive(Debug, Clone, Copy)]
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
        self.opts.iter().map(help_line).collect()
    }
}

/// `--deadline-secs`, shared by `all`, `run`, `check`, `model` and `profile`.
pub const DEADLINE: Group = Group::of(&[Opt::new(
    "[--deadline-secs S]",
    "wall-clock budget in seconds; an overrunning simulation is cancelled and the command exits 1",
)]);

/// One command's declaration.
#[derive(Debug, Clone, Copy)]
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

    fn opt(&self, name: &str) -> Option<&'static Opt> {
        self.opts().find(|o| o.name() == name)
    }

    /// Checks the words after the command's name, or returns the usage
    /// error; an unknown option is reported before any other fault.
    pub fn parse(&self, argv: &[String]) -> Result<Args<'_>, String> {
        let name = self.name;
        if let Some(bad) = argv.iter().find(|w| w.starts_with("--") && self.opt(w).is_none()) {
            return Err(format!("unknown option {bad:?} for {name}"));
        }
        let mut args = Args { grammar: self, given: Vec::new(), positional: None };
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let Some(opt) = self.opt(word) else {
                if self.positional.is_none() || args.positional.is_some() {
                    return Err(format!("unexpected argument {word:?} for {name}"));
                }
                args.positional = Some(word.clone());
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
        if let Some(p) = self.positional.filter(|p| p.required() && args.positional.is_none()) {
            return Err(format!("{name} requires {}", p.help));
        }
        match self.opts().find(|o| o.required() && !args.has(o.name())) {
            Some(missing) => Err(format!("{name} requires {}", missing.name())),
            None => Ok(args),
        }
    }

    /// `lead`, then the positional argument, the options and one `[title]`
    /// per titled group, wrapped under `lead`.
    pub fn synopsis(&self, lead: &str) -> String {
        let groups = self.groups.iter().flat_map(|g| match g.title {
            Some(title) => vec![format!("[{title}]")],
            None => g.opts.iter().map(|o| o.word.to_owned()).collect(),
        });
        wrap(lead, self.positional.iter().map(|p| p.word.to_owned()).chain(groups))
    }

    /// Help lines for the positional argument and the untitled groups.
    pub fn help(&self) -> String {
        let untitled = self.groups.iter().filter(|g| g.title.is_none()).flat_map(|g| g.opts);
        self.positional.iter().chain(untitled).map(help_line).collect()
    }
}

/// A command line checked against its [`Grammar`].
#[derive(Debug)]
pub struct Args<'g> {
    grammar: &'g Grammar,
    given: Vec<(&'static str, String)>,
    positional: Option<String>,
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

    /// A required option's value converted by `parse(name, value)`.
    pub fn req<'a, T>(
        &'a self,
        name: &str,
        parse: impl FnOnce(&str, &'a str) -> Result<T, String>,
    ) -> Result<T, String> {
        self.get(name, parse)?.ok_or_else(|| format!("{} requires {name}", self.grammar.name))
    }

    /// The positional argument, if one was given.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }
}

/// Looks `v` up in a table of named values, or says
/// `unknown <what> "<v>" (expected a, b, or c)`.
pub fn choice<T: Copy>(what: &str, v: &str, table: &[(&str, T)]) -> Result<T, String> {
    if let Some(&(_, t)) = table.iter().find(|(name, _)| *name == v) {
        return Ok(t);
    }
    let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
    let expected = match names.split_last() {
        Some((last, [one])) => format!("{one} or {last}"),
        Some((last, init)) => format!("{}, or {last}", init.join(", ")),
        None => String::new(),
    };
    Err(format!("unknown {what} {v:?} (expected {expected})"))
}

/// `  --width N             help`, the help wrapped at [`HELP_COLUMN`]; a
/// word too long for its column gets a line of its own.
fn help_line(opt: &Opt) -> String {
    let word = opt.bare();
    let lead = if word.len() + 4 > HELP_COLUMN {
        format!("  {word}\n{:HELP_COLUMN$}", "")
    } else {
        format!("  {word:<w$}", w = HELP_COLUMN - 2)
    };
    wrap(&lead, opt.help.split(' ').map(str::to_owned))
}

/// `lead` then `words`, wrapped before [`WIDTH`] with continuation lines
/// indented to the width of `lead`'s last line.
fn wrap(lead: &str, words: impl IntoIterator<Item = String>) -> String {
    let indent = lead.rsplit('\n').next().unwrap_or(lead).chars().count();
    let (mut out, mut col) = (lead.to_owned(), indent);
    for word in words {
        let n = word.chars().count();
        if col > indent && col + 1 + n > WIDTH {
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

    const TOP: Grammar = Grammar::new(
        "top",
        &[Group::of(&[
            Opt::new("[--file FILE]", "stream to follow"),
            Opt::new("[--once]", "render one frame and exit"),
        ])],
    );

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_checks_a_command_line_against_the_table() {
        let args = TOP.parse(&argv("--once --file live.jsonl")).unwrap();
        assert!(args.has("--once"));
        assert_eq!(args.value("--file"), Some("live.jsonl"));
        assert_eq!(args.positional(), None);
        for (line, err) in [
            ("--once --bogus", "unknown option \"--bogus\" for top"),
            ("--file --bogus", "unknown option \"--bogus\" for top"),
            ("--once --once", "repeated option \"--once\" for top"),
            ("--file", "--file requires a value"),
            ("--file --once", "--file requires a value"),
            ("extra", "unexpected argument \"extra\" for top"),
        ] {
            assert_eq!(TOP.parse(&argv(line)).unwrap_err(), err, "{line}");
        }
        let store = Grammar::new("store", &[]).positional(Opt::new("ACTION", "an action"));
        assert_eq!(store.parse(&argv("gc")).unwrap().positional(), Some("gc"));
        assert_eq!(store.parse(&[]).unwrap_err(), "store requires an action");
        let surplus = store.parse(&argv("gc gc")).unwrap_err();
        assert_eq!(surplus, "unexpected argument \"gc\" for store");
    }

    #[test]
    fn choice_names_the_alternatives() {
        let table = [("a", 1), ("b", 2), ("c", 3)];
        assert_eq!(choice("letter", "b", &table), Ok(2));
        assert_eq!(
            choice("letter", "z", &table).unwrap_err(),
            "unknown letter \"z\" (expected a, b, or c)"
        );
        assert_eq!(
            choice("pair", "z", &table[..2]).unwrap_err(),
            "unknown pair \"z\" (expected a or b)"
        );
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        assert_eq!(TOP.synopsis("  top "), "  top [--file FILE] [--once]\n");
        let help = TOP.help();
        assert_eq!(help.lines().next(), Some("  --file FILE           stream to follow"));
        assert_eq!(help.lines().nth(1), Some("  --once                render one frame and exit"));
        let text = wrap("lead: ", (0..30).map(|i| format!("w{i}")));
        assert!(text.lines().all(|l| l.chars().count() <= WIDTH), "{text}");
        assert!(text.lines().skip(1).all(|l| l.starts_with("      w")), "{text}");
        assert!(text.ends_with("w29\n"));
    }
}
