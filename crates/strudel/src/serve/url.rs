//! URL scheme for click-time pages, and the HTML the server renders.
//!
//! `/` lists the precomputed roots; `/page/<Skolem>/<arg>…` shows one
//! logical page, with the Skolem name percent-encoded and the arguments
//! encoded by [`encode_value`] (`n<oid>` for nodes, `i<int>`,
//! `s<urlencoded-string>`, …).

use strudel_graph::{FileKind, Oid, Value};
use strudel_site::{OutLink, PageRef, Target};

/// Encodes a page reference as a URL path.
pub fn page_url(p: &PageRef) -> String {
    let mut url = format!("/page/{}", urlencode(&p.skolem));
    for a in &p.args {
        url.push('/');
        url.push_str(&encode_value(a));
    }
    url
}

/// Parses a `/page/…` URL path back to a page reference (the inverse of
/// [`page_url`]). Returns `None` for anything malformed.
pub fn parse_page_url(path: &str) -> Option<PageRef> {
    let rest = path.strip_prefix("/page/")?;
    let mut parts = rest.split('/');
    let skolem = urldecode(parts.next()?)?;
    if skolem.is_empty() {
        return None;
    }
    let args: Option<Vec<Value>> = parts.map(decode_value).collect();
    Some(PageRef {
        skolem,
        args: args?,
    })
}

/// Encodes one value as a URL path segment.
pub fn encode_value(v: &Value) -> String {
    match v {
        Value::Node(n) => format!("n{}", n.0),
        Value::Int(i) => format!("i{i}"),
        Value::Bool(b) => format!("b{b}"),
        Value::Float(f) => format!("f{f}"),
        Value::Str(s) => format!("s{}", urlencode(s)),
        Value::Url(s) => format!("u{}", urlencode(s)),
        Value::File(k, s) => format!("F{}~{}", k.keyword(), urlencode(s)),
    }
}

/// Decodes a path segment back to a value.
pub fn decode_value(s: &str) -> Option<Value> {
    if s.is_empty() {
        return None;
    }
    let (tag, rest) = s.split_at(1);
    Some(match tag {
        "n" => Value::Node(Oid(rest.parse().ok()?)),
        "i" => Value::Int(rest.parse().ok()?),
        "b" => Value::Bool(rest.parse().ok()?),
        "f" => Value::Float(rest.parse().ok()?),
        "s" => Value::str(urldecode(rest)?),
        "u" => Value::url(urldecode(rest)?),
        "F" => {
            let (kind, path) = rest.split_once('~')?;
            Value::file(FileKind::from_keyword(kind)?, &urldecode(path)?)
        }
        _ => return None,
    })
}

pub(crate) fn urlencode(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

pub(crate) fn urldecode(s: &str) -> Option<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// HTML-escapes text, including the quote characters so escaped text is
/// safe inside attribute values too.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, HTML-escaped as by [`escape`].
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
}

/// A `fmt::Write` sink that HTML-escapes into a `String`, so displayed
/// values are escaped without an intermediate string.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// Renders a page's links as an HTML table under `title`.
pub(crate) fn render_links(title: &str, links: &[OutLink]) -> String {
    use std::fmt::Write as _;
    let mut html = String::with_capacity(128 + 128 * links.len());
    html.push_str("<html><body><h1>");
    escape_into(&mut html, title);
    html.push_str("</h1><table>");
    for l in links {
        html.push_str("<tr><td><b>");
        escape_into(&mut html, &l.label);
        html.push_str("</b></td><td>");
        let _ = match &l.target {
            Target::Page(p) => {
                html.push_str("<a href=\"");
                html.push_str(&page_url(p));
                html.push_str("\">");
                let written = write!(Escaped(&mut html), "{p}");
                html.push_str("</a>");
                written
            }
            Target::Value(v) => write!(Escaped(&mut html), "{v}"),
        };
        html.push_str("</td></tr>");
    }
    html.push_str("</table><p><a href=\"/\">roots</a></p></body></html>");
    html
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streaming renderer writes exactly what formatting each piece
    /// separately writes.
    #[test]
    fn render_links_matches_piecewise_formatting() {
        let links = vec![
            OutLink {
                label: "a&b".into(),
                target: Target::Page(PageRef {
                    skolem: "P".into(),
                    args: vec![Value::str("x \"y\" <z>"), Value::Int(3)],
                }),
            },
            OutLink {
                label: "v".into(),
                target: Target::Value(Value::str("<i>'&'</i>")),
            },
        ];
        let mut expected = format!("<html><body><h1>{}</h1><table>", escape("t<1>"));
        for l in &links {
            let target = match &l.target {
                Target::Page(p) => {
                    format!("<a href=\"{}\">{}</a>", page_url(p), escape(&p.to_string()))
                }
                Target::Value(v) => escape(&v.to_string()),
            };
            expected.push_str(&format!(
                "<tr><td><b>{}</b></td><td>{target}</td></tr>",
                escape(&l.label)
            ));
        }
        expected.push_str("</table><p><a href=\"/\">roots</a></p></body></html>");
        assert_eq!(render_links("t<1>", &links), expected);
    }

    #[test]
    fn value_encoding_roundtrips() {
        for v in [
            Value::Node(Oid(42)),
            Value::Int(-7),
            Value::Bool(true),
            Value::Float(2.5),
            Value::str("hello world & more"),
            Value::url("http://x/y?z=1"),
            Value::file(FileKind::PostScript, "papers/a b.ps"),
        ] {
            let encoded = encode_value(&v);
            assert_eq!(decode_value(&encoded), Some(v.clone()), "{encoded}");
        }
        assert_eq!(decode_value(""), None);
        assert_eq!(decode_value("zzz"), None);
        assert_eq!(decode_value("n-not-a-number"), None);
    }

    #[test]
    fn page_urls_are_parseable_paths() {
        let p = PageRef {
            skolem: "YearPage".into(),
            args: vec![Value::Int(1997)],
        };
        assert_eq!(page_url(&p), "/page/YearPage/i1997");
        assert_eq!(parse_page_url("/page/YearPage/i1997"), Some(p));
    }

    #[test]
    fn page_urls_percent_encode_the_skolem_segment() {
        // Skolem names normally look like identifiers, but nothing in the
        // query language forbids exotic ones; the URL must not break.
        for skolem in ["Year Page", "A/B", "naïve", "q?a=1&b=2", "x\"y'"] {
            let p = PageRef {
                skolem: skolem.to_string(),
                args: vec![Value::Int(3), Value::str("a b/c%d")],
            };
            let url = page_url(&p);
            let tail = &url["/page/".len()..];
            let encoded_skolem = tail.split('/').next().unwrap();
            assert!(
                encoded_skolem
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'%')),
                "unencoded byte in {url}"
            );
            assert_eq!(parse_page_url(&url), Some(p), "{url}");
        }
        assert_eq!(parse_page_url("/page/"), None);
        assert_eq!(parse_page_url("/page/%zz"), None);
        assert_eq!(parse_page_url("/elsewhere"), None);
    }

    #[test]
    fn escape_covers_quotes() {
        assert_eq!(
            escape(r#"<a href="x">&'quoted'</a>"#),
            "&lt;a href=&quot;x&quot;&gt;&amp;&#39;quoted&#39;&lt;/a&gt;"
        );
    }
}
