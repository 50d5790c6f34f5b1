//! The JSON contract of the vendored `serde`/`serde_derive`/`serde_json`.
//!
//! Every HTTP request the front door decodes, every response it writes,
//! the persisted catalogs and the committed result files go through these
//! three crates, so their exact behaviour is pinned here: the bytes
//! `to_string` and `to_string_pretty` write, the bit-identical decode of
//! everything written, and which inputs are accepted or rejected.

use sqe::prelude::{CmpOp, ColRef, Predicate, TableId};

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Named {
    id: u32,
    label: String,
}

#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
struct Newtype(u64);

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Pair(i32, String);

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
enum Shape {
    Unit,
    Struct { x: i64, y: Option<u8> },
    Tuple(u16, bool),
}

#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct Fixture {
    named: Named,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shape>,
    none: Option<u32>,
    some: Option<Named>,
    empty: Vec<u8>,
    nested: Vec<Vec<i16>>,
    floats: Vec<f64>,
    min: i64,
    max: u64,
    texts: Vec<String>,
}

/// The request shape of `POST /v1/<tenant>/estimate`.
#[derive(Debug, PartialEq, serde::Deserialize)]
struct Body {
    tables: Vec<u32>,
    predicates: Vec<Predicate>,
    deadline_ms: Option<u64>,
}

/// A `u128` past `u64::MAX`: written as a (lossy) float.
const BEYOND_U64: u128 = u64::MAX as u128 + 1;

fn fixture() -> Fixture {
    Fixture {
        named: Named {
            id: 7,
            label: "seven".to_string(),
        },
        newtype: Newtype(42),
        pair: Pair(-3, "p".to_string()),
        shapes: vec![
            Shape::Unit,
            Shape::Struct { x: -1, y: None },
            Shape::Struct { x: 2, y: Some(255) },
            Shape::Tuple(65535, true),
        ],
        none: None,
        some: Some(Named {
            id: 0,
            label: String::new(),
        }),
        empty: Vec::new(),
        nested: vec![vec![], vec![1, -2]],
        floats: vec![0.1, 1.0, -0.0, 1e300, 5e-324, f64::MAX],
        min: i64::MIN,
        max: u64::MAX,
        texts: vec![
            "quote \" backslash \\ newline \n ctrl \u{1} tab \t cr \r".to_string(),
            "héllo, 世界 ✓".to_string(),
        ],
    }
}

/// Fills the long float renderings into an expected-output template.
fn with_floats(template: &str) -> String {
    template
        .replace("<1e300>", &format!("1{}.0", "0".repeat(300)))
        .replace("<5e-324>", &format!("0.{}5", "0".repeat(323)))
        .replace("<MAX>", &format!("17976931348623157{}.0", "0".repeat(292)))
}

const COMPACT: &str = concat!(
    r#"[{"named":{"id":7,"label":"seven"},"newtype":42,"pair":[-3,"p"],"#,
    r#""shapes":["Unit",{"Struct":{"x":-1,"y":null}},{"Struct":{"x":2,"y":255}},"#,
    r#"{"Tuple":[65535,true]}],"none":null,"some":{"id":0,"label":""},"empty":[],"#,
    r#""nested":[[],[1,-2]],"floats":[0.1,1.0,-0.0,<1e300>,<5e-324>,<MAX>],"#,
    r#""min":-9223372036854775808,"max":18446744073709551615,"#,
    r#""texts":["quote \" backslash \\ newline \n ctrl \u0001 tab \t cr \r","héllo, 世界 ✓"]},"#,
    r#"18446744073709552000.0]"#,
);

const PRETTY: &str = r#"[
  {
    "named": {
      "id": 7,
      "label": "seven"
    },
    "newtype": 42,
    "pair": [
      -3,
      "p"
    ],
    "shapes": [
      "Unit",
      {
        "Struct": {
          "x": -1,
          "y": null
        }
      },
      {
        "Struct": {
          "x": 2,
          "y": 255
        }
      },
      {
        "Tuple": [
          65535,
          true
        ]
      }
    ],
    "none": null,
    "some": {
      "id": 0,
      "label": ""
    },
    "empty": [],
    "nested": [
      [],
      [
        1,
        -2
      ]
    ],
    "floats": [
      0.1,
      1.0,
      -0.0,
      <1e300>,
      <5e-324>,
      <MAX>
    ],
    "min": -9223372036854775808,
    "max": 18446744073709551615,
    "texts": [
      "quote \" backslash \\ newline \n ctrl \u0001 tab \t cr \r",
      "héllo, 世界 ✓"
    ]
  },
  18446744073709552000.0
]"#;

#[test]
fn output_bytes_are_pinned() {
    let value = (fixture(), BEYOND_U64);
    assert_eq!(serde_json::to_string(&value).unwrap(), with_floats(COMPACT));
    assert_eq!(
        serde_json::to_string_pretty(&value).unwrap(),
        with_floats(PRETTY)
    );
}

#[test]
fn non_finite_floats_fail_to_serialize() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde_json::to_string(&x).is_err());
        assert!(serde_json::to_string_pretty(&x).is_err());
        let mut fx = fixture();
        fx.floats.push(x);
        assert!(serde_json::to_string(&fx).is_err());
        assert!(serde_json::to_string_pretty(&fx).is_err());
    }
}

/// Bit-level equality: `Debug` prints floats in their shortest
/// round-trip form, so equal renderings mean equal bits (`-0.0` included).
fn assert_bit_identical(back: &Fixture, want: &Fixture) {
    assert_eq!(format!("{back:?}"), format!("{want:?}"));
    for (b, w) in back.floats.iter().zip(&want.floats) {
        assert_eq!(b.to_bits(), w.to_bits());
    }
}

#[test]
fn everything_written_decodes_back_bit_identically() {
    let want = fixture();
    for text in [with_floats(COMPACT), with_floats(PRETTY)] {
        let (back, beyond): (Fixture, f64) = serde_json::from_str(&text).unwrap();
        assert_bit_identical(&back, &want);
        // The only lossy value: a u128 past 64 bits goes out as a float,
        // reads back as that float and is refused as an integer.
        assert_eq!(beyond.to_bits(), (BEYOND_U64 as f64).to_bits());
        assert!(serde_json::from_str::<(Fixture, u128)>(&text).is_err());
    }
    let back: Fixture = serde_json::from_str(&serde_json::to_string(&want).unwrap()).unwrap();
    assert_bit_identical(&back, &want);

    // Every integer width at both ends, and each scalar on its own.
    macro_rules! round_trip {
        ($($t:ty),*) => {$(
            for n in [<$t>::MIN, <$t>::MAX] {
                let text = serde_json::to_string(&n).unwrap();
                assert_eq!(text, n.to_string());
                assert_eq!(serde_json::from_str::<$t>(&text).unwrap(), n);
            }
        )*};
    }
    round_trip!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);
    assert_eq!(
        serde_json::from_str::<u128>("18446744073709551615").unwrap(),
        u64::MAX as u128
    );
    assert_eq!(
        serde_json::from_str::<i128>("-9223372036854775808").unwrap(),
        i64::MIN as i128
    );
    assert_eq!(serde_json::to_string(&1.5f32).unwrap(), "1.5");
    assert_eq!(serde_json::from_str::<f32>("1.5").unwrap(), 1.5);
    assert_eq!(serde_json::to_string("a\"b").unwrap(), r#""a\"b""#);
    assert_eq!(serde_json::to_string(&Shape::Unit).unwrap(), r#""Unit""#);
    assert!(serde_json::from_str::<bool>("true").unwrap());
    assert_eq!(
        serde_json::from_str::<(u8, String, Option<bool>)>(r#"[1,"x",null]"#).unwrap(),
        (1, "x".to_string(), None)
    );
}

fn range(table: u32, column: u16, lo: i64, hi: i64) -> Predicate {
    Predicate::range(ColRef::new(TableId(table), column), lo, hi)
}

#[test]
fn lenient_inputs_are_accepted() {
    let body = |text: &str| -> Body {
        serde_json::from_str(text).unwrap_or_else(|e| panic!("{text}: {e}"))
    };

    // Whitespace anywhere.
    assert_eq!(
        body(concat!(
            " \t\n{ \"tables\" :\r[ 0 , 1 ] ,\n\"predicates\" : [ { \"Range\" : ",
            "{ \"col\" : { \"table\" : 0 , \"column\" : 1 } , \"lo\" : -5 , \"hi\" : 9 } } ,",
            "{\"Filter\":{\"col\":{\"table\":1,\"column\":0},\"op\" : \"Le\" ,\"value\":3}}",
            " ] , \"deadline_ms\" : null } \r\n",
        )),
        Body {
            tables: vec![0, 1],
            predicates: vec![
                range(0, 1, -5, 9),
                Predicate::filter(ColRef::new(TableId(1), 0), CmpOp::Le, 3),
            ],
            deadline_ms: None,
        }
    );

    // Escaped keys and escaped variant names match after unescaping.
    assert_eq!(
        body(concat!(
            r#"{"t\u0061bles":[2],"predicates":[{"Filter":{"col":{"table":2,"#,
            r#""column":0},"op":"\u004ce","value":-1}}],"deadline_ms":5}"#,
        )),
        Body {
            tables: vec![2],
            predicates: vec![Predicate::filter(ColRef::new(TableId(2), 0), CmpOp::Le, -1)],
            deadline_ms: Some(5),
        }
    );

    // Unknown fields are skipped, whatever they hold.
    assert_eq!(
        body(concat!(
            r#"{"tables":[0],"extra":{"a":[1,2.5,{"b":null,"c":"x\"y"}],"d":true},"#,
            r#""predicates":[],"deadline_ms":1,"more":-1e9}"#,
        )),
        Body {
            tables: vec![0],
            predicates: vec![],
            deadline_ms: Some(1),
        }
    );

    // A duplicate key: the first occurrence wins, the rest are skipped.
    assert_eq!(
        body(concat!(
            r#"{"tables":[0],"predicates":[],"tables":"not a list","#,
            r#""deadline_ms":null,"deadline_ms":7}"#,
        )),
        Body {
            tables: vec![0],
            predicates: vec![],
            deadline_ms: None,
        }
    );

    // An enum object reads its first entry and skips the rest.
    assert_eq!(
        body(concat!(
            r#"{"tables":[0],"predicates":[{"Range":{"col":{"table":0,"column":0},"#,
            r#""lo":1,"hi":2},"Join":"ignored","Range":7}],"deadline_ms":null}"#,
        )),
        Body {
            tables: vec![0],
            predicates: vec![range(0, 0, 1, 2)],
            deadline_ms: None,
        }
    );

    // Extra tuple elements are ignored.
    assert_eq!(
        serde_json::from_str::<Pair>(r#"[1,"a",true,{"x":[]}]"#).unwrap(),
        Pair(1, "a".to_string())
    );
    assert_eq!(
        serde_json::from_str::<Shape>(r#"{"Tuple":[1,false,"extra"]}"#).unwrap(),
        Shape::Tuple(1, false)
    );
    assert_eq!(
        serde_json::from_str::<(u8, bool)>("[1,true,null]").unwrap(),
        (1, true)
    );

    // An integer may go to a float field.
    assert_eq!(serde_json::from_str::<f64>("-12").unwrap(), -12.0);
}

#[test]
fn strict_inputs_are_rejected() {
    let rejected = [
        // A missing field, `Option` fields included.
        r#"{"tables":[0],"predicates":[]}"#,
        r#"{"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[{"Range":{"col":{"table":0,"column":0},"lo":1}}],"deadline_ms":null}"#,
        // A float for an integer, even an integral one.
        r#"{"tables":[1.0],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[1e2],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":1.0}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":1e2}"#,
        // An integer out of its type's range.
        r#"{"tables":[4294967296],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[-1],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":18446744073709551616}"#,
        r#"{"tables":[0],"predicates":[{"Filter":{"col":{"table":0,"column":65536},"op":"Eq","value":0}}],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[{"Filter":{"col":{"table":0,"column":0},"op":"Eq","value":9223372036854775808}}],"deadline_ms":null}"#,
        // Trailing characters.
        r#"{"tables":[0],"predicates":[],"deadline_ms":null} x"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":null}{}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":null},"#,
        // Enum shapes: a unit variant as an object, a data variant as a
        // string, an empty enum object, an unknown variant.
        r#"{"tables":[0],"predicates":[{"Filter":{"col":{"table":0,"column":0},"op":{"Eq":[]},"value":0}}],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":["Range"],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[{}],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[{"Between":{}}],"deadline_ms":null}"#,
        // Malformed JSON, also inside a skipped field.
        r#"{"tables":[0,],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":null,}"#,
        r#"{"tables":[0],"junk":[1 2],"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"junk":"open,"predicates":[],"deadline_ms":null}"#,
        r#"{"tables":[0],"predicates":[],"deadline_ms":nul}"#,
        "",
        "not json",
    ];
    for text in rejected {
        assert!(
            serde_json::from_str::<Body>(text).is_err(),
            "accepted: {text}"
        );
    }
    // A tuple too short.
    assert!(serde_json::from_str::<Pair>("[1]").is_err());
    assert!(serde_json::from_str::<Shape>(r#"{"Tuple":[1]}"#).is_err());
    assert!(serde_json::from_str::<(u8, u8)>("[1]").is_err());
}
