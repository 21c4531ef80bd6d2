//! The borrowing pull parser against the owned-token parser it replaced
//! (`reference/`): on every input both produce the same tokens, or the
//! same error kind at the same byte offset.
//!
//! The inputs cover what the subset parses and what it rejects:
//! entities (valid, unknown, unterminated), CDATA, comments, processing
//! instructions, DOCTYPE, namespace prefixes, non-ASCII names and text,
//! truncations at every kind of boundary, and junk after the root.

mod reference;

use proptest::prelude::*;
use proptest::TestRng;

use indiss_xml::{escape_attr, escape_text, XmlPullParser, XmlToken};

type Outcome = Result<Vec<reference::XmlToken>, reference::XmlError>;

/// The borrowing parser's output, in the oracle's owned shape.
fn borrowing(doc: &str) -> Outcome {
    let tokens = XmlPullParser::new(doc).tokens().map_err(reference::XmlError::from)?;
    Ok(tokens.into_iter().map(owned).collect())
}

fn owned(token: XmlToken<'_>) -> reference::XmlToken {
    match token {
        XmlToken::StartElement { name, attributes, self_closing } => {
            reference::XmlToken::StartElement {
                name: name.to_owned(),
                attributes: attributes
                    .into_iter()
                    .map(|(n, v)| (n.to_owned(), v.into_owned()))
                    .collect(),
                self_closing,
            }
        }
        XmlToken::EndElement { name } => reference::XmlToken::EndElement { name: name.to_owned() },
        XmlToken::Text(text) => reference::XmlToken::Text(text.into_owned()),
    }
}

fn oracle(doc: &str) -> Outcome {
    reference::XmlPullParser::new(doc).tokens()
}

fn assert_agree(doc: &str) -> bool {
    let expected = oracle(doc);
    assert_eq!(borrowing(doc), expected, "the parsers disagree on {doc:?}");
    expected.is_ok()
}

/// Fragments that open, close, break or decorate markup; concatenating
/// a random handful reaches most of the parser's error paths.
const PIECES: &[&str] = &[
    "<a>",
    "</a>",
    "<b/>",
    "<ns:b x=\"1\" y='&amp;'>",
    "</ns:b>",
    "<é>",
    "</é>",
    "<日本 語=\"値\">",
    "</日本>",
    "<😀/>",
    "<x²٣/>",
    "text",
    " ",
    "\n\t",
    "é",
    "ß→",
    "\u{a0}",
    "\u{3000}",
    "&amp;",
    "&lt;&#233;&#x20AC;",
    "&bogus;",
    "&#xD800;",
    "&",
    "<![CDATA[a<b&c]]>",
    "<![CDATA[",
    "]]>",
    "<!-- c -->",
    "<!--",
    "--->",
    "<?xml version=\"1.0\"?>",
    "<?pi",
    "?>",
    "<!DOCTYPE r>",
    "<!DOCTYPE",
    ">",
    "<",
    "/>",
    "=",
    "\"",
    "<a x=\"1\" x=\"2\"/>",
    "<a x=1>",
    "<a\u{3000}x='1'>",
    "<a x='é>",
    "< a>",
    "</a >",
    "<a/ >",
    "</ é>",
];

fn spliced() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..16)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn name() -> impl Strategy<Value = String> {
    prop_oneof!["[a-zé日_][a-z0-9é日²٣.-]{0,6}", "[a-z]{1,3}:[a-zé]{1,5}"]
}

fn text() -> impl Strategy<Value = String> {
    "[ -~éß日😀\u{a0}\u{3000}]{0,12}"
}

fn attrs() -> impl Strategy<Value = String> {
    proptest::collection::vec((name(), text()), 0..3).prop_map(|pairs| {
        pairs.iter().map(|(k, v)| format!(" {k}=\"{}\"", escape_attr(v))).collect()
    })
}

/// A node's markup: text (escaped, with raw entity and character
/// references mixed in), CDATA, comments, PIs and nested elements.
fn node(depth: u32) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        text().prop_map(|t| escape_text(&t).into_owned()),
        Just("<![CDATA[ x < y & é ]]>".to_owned()),
        Just("<!-- note -->".to_owned()),
        Just("<?pi data?>".to_owned()),
        Just("&amp;&#233;&#x65E5;".to_owned()),
        (name(), attrs()).prop_map(|(n, a)| format!("<{n}{a}/>")),
    ];
    leaf.prop_recursive(depth, 32, 4, |inner| {
        (name(), attrs(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(n, a, kids)| format!("<{n}{a}>{}</{n}>", kids.concat()))
    })
}

const PROLOGS: &[&str] =
    &["", "<?xml version=\"1.0\"?>", "<!DOCTYPE root>", "<!-- c -->\n", "\u{feff}"];
const TAILS: &[&str] = &["", "\n", "<!-- end -->", "<x/>", "junk", "</r>", "<![CDATA[t]]>", "é"];

/// A document: prolog, one root element, a tail, and sometimes a cut at
/// a character boundary.
fn document() -> impl Strategy<Value = String> {
    (
        (0..PROLOGS.len(), name(), attrs(), proptest::collection::vec(node(3), 0..5)),
        (0..TAILS.len(), proptest::option::of(0usize..400), any::<bool>()),
    )
        .prop_map(|((prolog, root, attrs, kids), (tail, cut, cut_it))| {
            let mut doc = format!(
                "{}<{root}{attrs}>{}</{root}>{}",
                PROLOGS[prolog],
                kids.concat(),
                TAILS[tail]
            );
            if let Some(mut at) = cut.filter(|_| cut_it) {
                at = at.min(doc.len());
                while !doc.is_char_boundary(at) {
                    at -= 1;
                }
                doc.truncate(at);
            }
            doc
        })
}

/// Generated documents agree, and the generator reaches both outcomes
/// often enough for that to mean something.
#[test]
fn generated_documents_tokenize_as_the_oracle_does() {
    let mut rng = TestRng::from_name("generated_documents_tokenize_as_the_oracle_does");
    let strategy = document();
    let (mut ok, mut failed) = (0, 0);
    for _ in 0..768 {
        if assert_agree(&strategy.generate(&mut rng)) {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    assert!(ok >= 128 && failed >= 128, "{ok} parsed, {failed} rejected");
}

/// Every prefix of one rich document, cut at each character boundary.
#[test]
fn every_truncation_of_a_rich_document_agrees() {
    let doc = "<?xml version=\"1.0\"?><!DOCTYPE r><!-- c --><r:root xmlns:r=\"u&amp;v\" \
               é='日本'>\n  <日本 k=\"&#x65E5;\">té&lt;xt<![CDATA[<raw>]]><?pi x?></日本>\
               <a/><b x='1'\ty=\"2\" /></r:root>\n";
    for at in (0..=doc.len()).filter(|&at| doc.is_char_boundary(at)) {
        assert_agree(&doc[..at]);
    }
    assert!(assert_agree(doc));
}

proptest! {
    /// Spliced fragments: mostly malformed, so mostly error paths.
    #[test]
    fn spliced_fragments_tokenize_as_the_oracle_does(doc in spliced()) {
        assert_agree(&doc);
    }

    /// Arbitrary printable input with non-ASCII characters mixed in.
    #[test]
    fn non_ascii_input_tokenizes_as_the_oracle_does(s in "[ -~é日ß😀\u{a0}\u{3000}]{0,96}") {
        assert_agree(&s);
    }

    /// Input biased towards markup, with non-ASCII name characters.
    #[test]
    fn non_ascii_markup_tokenizes_as_the_oracle_does(s in "[<>/a-zé日²٣→😀 \"'=&#;!?:-]{0,64}") {
        assert_agree(&s);
    }
}
