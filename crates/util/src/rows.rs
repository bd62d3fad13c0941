//! JSON lines declared as rows.
//!
//! Every JSON line the workspace writes and reads back — trace events,
//! wire frames, journal lines, `spec.json` — is declared once with
//! [`json_rows!`](crate::json_rows): a struct or an enum whose fields
//! are listed in JSON order, each with its type and, where the type
//! alone does not say how it is written, its [`Codec`]. The macro
//! generates the type, its encoder and its typed decoder from that one
//! declaration, so the two cannot disagree.
//!
//! A field's type says how its value is written ([`Field`]); its codec
//! says how its key appears:
//!
//! - [`Plain`] (the default): always written; the key must be present.
//! - `name: T = default`: always written; an absent key reads `default`.
//! - [`OrNull`]: an `Option` written as `null` when `None`.
//! - [`IfSome`]: an `Option` whose key is left out when `None`.
//! - [`IfTrue`]: a `bool` written only when true.
//! - [`Skip`]: never written; reads as the type's default.
//! - [`Flat`]: a row whose fields sit in the enclosing object. An
//!   `Option` of a flattened row is present when its first key is.
//! - [`Raw`]: pre-rendered JSON passed through byte for byte.
//!
//! A field whose type is a declared struct row is written as a nested
//! object, and a `Vec` of rows as an array of objects.
//!
//! Each table declares its unknown-key policy: a `strict` table rejects
//! a key it does not declare, naming it; a `lenient` one ignores it.

use crate::json::{self, JsonObject, JsonValue};

/// A field type with one JSON shape: how it is written and read back.
pub trait Field: Sized {
    /// What a wrong value was expected to be, for decode errors.
    const EXPECTED: &'static str;
    /// Write `self` as the value of `key`.
    fn put(&self, o: JsonObject, key: &str) -> JsonObject;
    /// Read a value back; `None` when it has the wrong shape.
    fn from_value(v: JsonValue) -> Option<Self>;
}

/// `impl Field for T` from its expected shape, writer and reader.
macro_rules! field {
    ($($t:ty: $expected:literal, $put:expr, $from:expr;)*) => {$(
        impl Field for $t {
            const EXPECTED: &'static str = $expected;
            fn put(&self, o: JsonObject, key: &str) -> JsonObject {
                $put(o, key, self)
            }
            fn from_value(v: JsonValue) -> Option<Self> {
                $from(v)
            }
        }
    )*};
}

field! {
    String: "a string", |o: JsonObject, k, v: &String| o.str(k, v),
        |v| match v { JsonValue::Str(s) => Some(s), _ => None };
    u64: "an unsigned integer", |o: JsonObject, k, v: &u64| o.u64(k, *v),
        |v: JsonValue| v.as_u64();
    // Written as a `u64`.
    usize: "an unsigned integer", |o: JsonObject, k, v: &usize| o.u64(k, *v as u64),
        |v: JsonValue| v.as_u64().and_then(|n| usize::try_from(n).ok());
    // A non-finite value is written as `null`, and `null` reads as NaN.
    f64: "a number or null", |o: JsonObject, k, v: &f64| o.f64(k, *v),
        |v| match v { JsonValue::Null => Some(f64::NAN), v => v.as_f64() };
    bool: "a boolean", |o: JsonObject, k, v: &bool| o.bool(k, *v),
        |v: JsonValue| v.as_bool();
    Vec<f64>: "an array of numbers",
        |o: JsonObject, k, v: &Vec<f64>| o.f64_array(k, v), items;
    Vec<u64>: "an array of unsigned integers",
        |o: JsonObject, k, v: &Vec<u64>| o.u64_array(k, v), items;
    Vec<String>: "an array of strings",
        |o: JsonObject, k, v: &Vec<String>| o.str_array(k, v), items;
}

/// Decode every item of an array, or `None` if any has the wrong shape.
fn items<T: Field>(v: JsonValue) -> Option<Vec<T>> {
    match v {
        JsonValue::Array(items) => items.into_iter().map(T::from_value).collect(),
        _ => None,
    }
}

/// An array of nested objects.
impl<T: Row + Field> Field for Vec<T> {
    const EXPECTED: &'static str = "an array of objects";
    fn put(&self, o: JsonObject, key: &str) -> JsonObject {
        let rows: Vec<String> = self.iter().map(encode).collect();
        o.raw(key, &json::array_of(&rows))
    }
    fn from_value(v: JsonValue) -> Option<Self> {
        items(v)
    }
}

/// A struct declared with [`json_rows!`](crate::json_rows): its fields,
/// written into an object and taken back out of one.
pub trait Row: Sized {
    /// The row's name, for decode errors.
    const NAME: &'static str;
    /// Its first key: an optional [`Flat`] row is present when this is.
    const FIRST_KEY: &'static str;
    /// Reject undeclared keys (`strict`) or ignore them (`lenient`).
    const STRICT: bool;
    /// Write the row's members, in table order.
    fn put_fields(&self, o: JsonObject) -> JsonObject;
    /// Take the row's members out of `m`, leaving any others.
    fn take_fields(m: &mut Fields<'_>) -> Result<Self, String>;
}

/// Render a row as one JSON object.
pub fn encode<R: Row>(row: &R) -> String {
    row.put_fields(JsonObject::new()).finish()
}

/// Decode one JSON object line into a row, under the row's policy.
pub fn decode<R: Row>(line: &str) -> Result<R, String> {
    decode_fields(Fields::parse(line)?)
}

/// Decode a whole object's members into a row, under the row's policy.
pub fn decode_fields<R: Row>(mut m: Fields<'_>) -> Result<R, String> {
    m.context = R::NAME;
    let row = R::take_fields(&mut m)?;
    m.finish(R::STRICT).map(|()| row)
}

/// The not yet decoded members of one JSON object line.
#[derive(Debug)]
pub struct Fields<'a> {
    /// Names the row being decoded, in error messages.
    pub context: &'static str,
    /// The source line, for [`Raw`] members.
    line: &'a str,
    members: Vec<(String, JsonValue)>,
}

impl<'a> Fields<'a> {
    /// Parse one line; it must hold a JSON object.
    pub fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        Fields::of(json::parse(line)?, line)
    }

    /// The members of an already parsed `line`.
    pub fn of(value: JsonValue, line: &'a str) -> Result<Fields<'a>, String> {
        match value {
            JsonValue::Object(members) => Ok(Fields {
                context: "",
                line,
                members,
            }),
            _ => Err("not a JSON object".to_string()),
        }
    }

    /// Is `key` present?
    pub fn has(&self, key: &str) -> bool {
        self.members.iter().any(|(k, _)| k == key)
    }

    /// Move the value of `key` out, if present.
    pub fn take(&mut self, key: &str) -> Option<JsonValue> {
        let i = self.members.iter().position(|(k, _)| k == key)?;
        Some(self.members.remove(i).1)
    }

    /// Move a string tag out; `None` when absent or not a string.
    pub fn take_tag(&mut self, key: &str) -> Option<String> {
        String::from_value(self.take(key)?)
    }

    fn missing(&self, key: &str) -> String {
        format!("{}: missing field `{key}`", self.context)
    }

    fn decode<T: Field>(&self, key: &str, v: JsonValue) -> Result<T, String> {
        T::from_value(v)
            .ok_or_else(|| format!("{}: field `{key}`: expected {}", self.context, T::EXPECTED))
    }

    /// Take `key`, or `default()` when it is absent.
    pub fn take_or<T: Field>(
        &mut self,
        key: &str,
        default: impl FnOnce() -> T,
    ) -> Result<T, String> {
        match self.take(key) {
            None => Ok(default()),
            Some(v) => self.decode(key, v),
        }
    }

    /// Take `key`, which must hold the JSON literal `token`.
    pub fn take_const(&mut self, key: &str, token: &str) -> Result<(), String> {
        let matches = match self.take(key) {
            None => return Err(self.missing(key)),
            Some(JsonValue::Str(s)) => {
                token.strip_prefix('"').and_then(|t| t.strip_suffix('"')) == Some(&*s)
            }
            Some(JsonValue::Number(raw)) => raw == token,
            Some(JsonValue::Bool(b)) => token == if b { "true" } else { "false" },
            Some(_) => false,
        };
        match matches {
            true => Ok(()),
            false => Err(format!("{}: field `{key}`: expected {token}", self.context)),
        }
    }

    /// Take a flattened row that is present when its first key is.
    pub fn take_row<R: Row>(&mut self) -> Result<Option<R>, String> {
        match self.has(R::FIRST_KEY) {
            true => R::take_fields(self).map(Some),
            false => Ok(None),
        }
    }

    /// Apply the table's policy to the members left over.
    pub fn finish(&self, strict: bool) -> Result<(), String> {
        match self.members.first() {
            Some((key, _)) if strict => Err(format!("{}: unknown field `{key}`", self.context)),
            _ => Ok(()),
        }
    }
}

/// How a field's key appears in its object.
pub trait Codec<T> {
    /// Write `value` under `key`.
    fn put(o: JsonObject, key: &str, value: &T) -> JsonObject;
    /// Take the value of `key` out of `m`.
    fn take(m: &mut Fields<'_>, key: &str) -> Result<T, String>;
}

/// Always written; the key must be present. The default codec.
pub struct Plain;

impl<T: Field> Codec<T> for Plain {
    fn put(o: JsonObject, key: &str, value: &T) -> JsonObject {
        value.put(o, key)
    }
    fn take(m: &mut Fields<'_>, key: &str) -> Result<T, String> {
        let v = m.take(key).ok_or_else(|| m.missing(key))?;
        m.decode(key, v)
    }
}

/// An `Option` written as `null` when `None`; the key must be present.
pub struct OrNull;

impl<T: Field> Codec<Option<T>> for OrNull {
    fn put(o: JsonObject, key: &str, value: &Option<T>) -> JsonObject {
        match value {
            Some(v) => v.put(o, key),
            None => o.raw(key, "null"),
        }
    }
    fn take(m: &mut Fields<'_>, key: &str) -> Result<Option<T>, String> {
        match m.take(key) {
            None => Err(m.missing(key)),
            Some(JsonValue::Null) => Ok(None),
            Some(v) => m.decode(key, v).map(Some),
        }
    }
}

/// An `Option` whose key is left out when `None`; a missing key reads
/// as `None`.
pub struct IfSome;

impl<T: Field> Codec<Option<T>> for IfSome {
    fn put(o: JsonObject, key: &str, value: &Option<T>) -> JsonObject {
        match value {
            Some(v) => v.put(o, key),
            None => o,
        }
    }
    fn take(m: &mut Fields<'_>, key: &str) -> Result<Option<T>, String> {
        match m.take(key) {
            None => Ok(None),
            Some(v) => m.decode(key, v).map(Some),
        }
    }
}

/// A `bool` written only when true; a missing key reads as false.
pub struct IfTrue;

impl Codec<bool> for IfTrue {
    fn put(o: JsonObject, key: &str, value: &bool) -> JsonObject {
        if *value {
            value.put(o, key)
        } else {
            o
        }
    }
    fn take(m: &mut Fields<'_>, key: &str) -> Result<bool, String> {
        m.take_or(key, || false)
    }
}

/// Not serialised; reads as the type's default.
pub struct Skip;

impl<T: Default> Codec<T> for Skip {
    fn put(o: JsonObject, _key: &str, _value: &T) -> JsonObject {
        o
    }
    fn take(_m: &mut Fields<'_>, _key: &str) -> Result<T, String> {
        Ok(T::default())
    }
}

/// A row whose members sit in the enclosing object; its own key is not
/// written.
pub struct Flat;

impl<T: Row> Codec<T> for Flat {
    fn put(o: JsonObject, _key: &str, value: &T) -> JsonObject {
        value.put_fields(o)
    }
    fn take(m: &mut Fields<'_>, _key: &str) -> Result<T, String> {
        T::take_fields(m)
    }
}

/// An optional flattened row: present exactly when its first key is.
impl<T: Row> Codec<Option<T>> for Flat {
    fn put(o: JsonObject, _key: &str, value: &Option<T>) -> JsonObject {
        match value {
            Some(row) => row.put_fields(o),
            None => o,
        }
    }
    fn take(m: &mut Fields<'_>, _key: &str) -> Result<Option<T>, String> {
        m.take_row()
    }
}

/// Pre-rendered JSON, written verbatim and read back as the exact text
/// of the value in the source line (top-level keys only).
pub struct Raw;

impl Codec<String> for Raw {
    fn put(o: JsonObject, key: &str, value: &String) -> JsonObject {
        o.raw(key, value)
    }
    fn take(m: &mut Fields<'_>, key: &str) -> Result<String, String> {
        m.take(key).ok_or_else(|| m.missing(key))?;
        raw_field_slice(m.line, key)
            .map(str::to_string)
            .ok_or_else(|| m.missing(key))
    }
}

/// The raw text of a top-level member's value in one JSON object line,
/// string- and nesting-aware.
fn raw_field_slice<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let (mut depth, mut in_string, mut escaped, mut start) = (0usize, false, false, None);
    for (i, b) in line.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => {
                if depth == 1 && start.is_none() && line[i..].starts_with(&needle) {
                    start = Some(i + needle.len());
                }
                in_string = true;
            }
            b'{' | b'[' => depth += 1,
            b',' | b'}' | b']' => {
                if let (1, Some(start)) = (depth, start) {
                    return line.get(start..i);
                }
                if b != b',' {
                    depth = depth.saturating_sub(1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Declare a JSON line format as rows: a type, its encoder and its typed
/// decoder, from one table.
///
/// A **struct** lists its fields in JSON order, each as
/// `name: Type`, optionally followed by `=> Codec` or `= default` (see
/// the [module docs](crate::rows)); `name as "key": Type` writes the
/// field under another key. Constant members written before the fields
/// follow the policy in brackets, as `["type" = "Trial"]`:
///
/// ```text
/// json_rows! {
///     pub struct Header: lenient ["type" = "Header", "version" = 1] {
///         pub program: String,
///         pub seed: u64 = 7,
///     }
/// }
/// ```
///
/// It implements [`Row`], and [`Field`] as a nested object.
///
/// An **enum** is `tagged "key"` — each variant writes its tag (`Name =
/// "tag"`, default the variant name) under `key`, and
/// `from_tag(tag, fields)` decodes the variant the tag names (`None`
/// for an unknown tag) — or
/// `untagged`, where each variant names the keys that select it,
/// `Name when ["key", "other" = literal]`: rows are tried in order, the
/// first whose keys are all present decodes the object, and each
/// `= literal` is written before the fields and checked on decode.
/// Variants are unit (`Name,`), a flattened row (`Name(Row),`) or a
/// list of fields (`Name { fields },`). Enums get `put_fields`, and
/// `kind` (tagged) or `from_fields` (untagged).
#[macro_export]
macro_rules! json_rows {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident: $policy:ident $([$($head:tt)*])? {
            $( $(#[$fm:meta])* $fv:vis $f:ident $(as $k:literal)? : $t:ty
                $(=> $c:ident)? $(= $d:expr)? ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name { $( $(#[$fm])* $fv $f: $t, )* }

        impl $crate::rows::Row for $name {
            const NAME: &'static str = stringify!($name);
            const FIRST_KEY: &'static str = [$( $crate::json_rows!(@key $f $($k)?) ),*][0];
            const STRICT: bool = $crate::json_rows!(@strict $policy);
            fn put_fields(&self, o: $crate::json::JsonObject) -> $crate::json::JsonObject {
                let $name { $($f),* } = self;
                $crate::json_rows!(@put_head o [$($($head)*)?]);
                $crate::json_rows!(@put_body o row { $( ($f [$($k)?] $t [$($c)?] [$($d)?]) )* })
            }
            fn take_fields(m: &mut $crate::rows::Fields<'_>) -> Result<Self, String> {
                $crate::json_rows!(@take_head m [$($($head)*)?]);
                Ok($crate::json_rows!(@take_body ($name) m {
                    $( ($f [$($k)?] $t [$($c)?] [$($d)?]) )*
                }))
            }
        }

        /// Written as a nested object.
        impl $crate::rows::Field for $name {
            const EXPECTED: &'static str = "an object";
            fn put(&self, o: $crate::json::JsonObject, key: &str) -> $crate::json::JsonObject {
                o.raw(key, &$crate::rows::encode(self))
            }
            fn from_value(v: $crate::json::JsonValue) -> Option<Self> {
                $crate::rows::Fields::of(v, "").and_then($crate::rows::decode_fields).ok()
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $policy:ident, $mode:ident $($tag_key:literal)? {
            $($variants:tt)*
        }
    ) => {
        $crate::json_rows!(@munch
            [$(#[$meta])* $vis $name $policy ($mode $($tag_key)?)] [] $($variants)*);
    };

    // Normalise each variant to
    // (shape [attrs] Name [tag] [selector] [definition] field-spec).
    (@munch $hdr:tt [$($acc:tt)*]
        $(#[$vm:meta])* $v:ident $(= $tag:literal)? $(when [$($sel:tt)*])? {
            $( $(#[$fm:meta])* $f:ident $(as $k:literal)? : $t:ty
                $(=> $c:ident)? $(= $d:expr)? ),* $(,)?
        },
        $($rest:tt)*
    ) => {
        $crate::json_rows!(@munch $hdr [$($acc)*
            (named [$(#[$vm])*] $v [$($tag)?] [$($($sel)*)?]
                [{ $( $(#[$fm])* $f: $t, )* }]
                { $( ($f [$($k)?] $t [$($c)?] [$($d)?]) )* })
        ] $($rest)*);
    };
    (@munch $hdr:tt [$($acc:tt)*]
        $(#[$vm:meta])* $v:ident $(= $tag:literal)? $(when [$($sel:tt)*])? ($inner:ty),
        $($rest:tt)*
    ) => {
        $crate::json_rows!(@munch $hdr [$($acc)*
            (tuple [$(#[$vm])*] $v [$($tag)?] [$($($sel)*)?] [($inner)] ($inner))
        ] $($rest)*);
    };
    (@munch $hdr:tt [$($acc:tt)*]
        $(#[$vm:meta])* $v:ident $(= $tag:literal)? $(when [$($sel:tt)*])?,
        $($rest:tt)*
    ) => {
        $crate::json_rows!(@munch $hdr [$($acc)*
            (unit [$(#[$vm])*] $v [$($tag)?] [$($($sel)*)?] [] ())
        ] $($rest)*);
    };
    (@munch [$(#[$meta:meta])* $vis:vis $name:ident $policy:ident $mode:tt]
        [$( ($shape:ident [$(#[$vm:meta])*] $v:ident [$($tag:literal)?] [$($sel:tt)*]
            [$($def:tt)*] $spec:tt) )*]
    ) => {
        $(#[$meta])*
        $vis enum $name { $( $(#[$vm])* $v $($def)*, )* }

        impl $name {
            /// Write this row's members: its tag or constant keys, then its
            /// fields in table order.
            pub fn put_fields(&self, o: $crate::json::JsonObject) -> $crate::json::JsonObject {
                match self { $(
                    $crate::json_rows!(@bind $name $shape $v row $spec) => {
                        $crate::json_rows!(@put_tag o $mode $v [$($tag)?] [$($sel)*]);
                        $crate::json_rows!(@put_body o row $spec)
                    }
                )* }
            }
        }
        $crate::json_rows!(@decode $mode $name $policy
            $( ($shape $v [$($tag)?] [$($sel)*] $spec) )*);
    };

    (@decode (tagged $tag_key:literal) $name:ident $policy:ident
        $( ($shape:ident $v:ident [$($tag:literal)?] [$($sel:tt)*] $spec:tt) )*
    ) => {
        impl $name {
            /// The row's tag.
            pub fn kind(&self) -> &'static str {
                match self { $(
                    $crate::json_rows!(@any $name $shape $v) =>
                        $crate::json_rows!(@tag $v $($tag)?),
                )* }
            }

            /// Decode the row that `tag` names from the members left in
            /// `m`; `None` when no row has that tag.
            pub fn from_tag(
                tag: &str,
                m: &mut $crate::rows::Fields<'_>,
            ) -> Result<Option<Self>, String> {
                $( if tag == $crate::json_rows!(@tag $v $($tag)?) {
                    m.context = $crate::json_rows!(@tag $v $($tag)?);
                    let row = $crate::json_rows!(@take_body ($name::$v) m $spec);
                    m.finish($crate::json_rows!(@strict $policy))?;
                    return Ok(Some(row));
                } )*
                Ok(None)
            }
        }
    };
    (@decode (untagged) $name:ident $policy:ident
        $( ($shape:ident $v:ident [$($tag:literal)?] [$($sel:tt)*] $spec:tt) )*
    ) => {
        impl $name {
            /// Decode the first row whose selecting keys are all present
            /// in `m`.
            pub fn from_fields(m: &mut $crate::rows::Fields<'_>) -> Result<Self, String> {
                $( if $crate::json_rows!(@selected m [$($sel)*]) {
                    m.context = stringify!($v);
                    $crate::json_rows!(@take_head m [$($sel)*]);
                    let row = $crate::json_rows!(@take_body ($name::$v) m $spec);
                    m.finish($crate::json_rows!(@strict $policy))?;
                    return Ok(row);
                } )*
                Err(format!("no {} row matches the keys", stringify!($name)))
            }
        }
    };

    (@strict strict) => { true };
    (@strict lenient) => { false };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $k:literal) => { $k };
    (@tag $v:ident) => { stringify!($v) };
    (@tag $v:ident $tag:literal) => { $tag };
    (@codec) => { $crate::rows::Plain };
    (@codec $c:ident) => { $crate::rows::$c };

    // Constant members (`"key" = literal`); a bare `"key"` only selects.
    (@put_head $o:ident [$($k:literal $(= $value:literal)?),* $(,)?]) => {
        $($( let $o = $o.raw($k, stringify!($value)); )?)*
    };
    (@take_head $m:ident [$($k:literal $(= $value:literal)?),* $(,)?]) => {
        $($( $m.take_const($k, stringify!($value))?; )?)*
    };
    (@selected $m:ident [$($k:literal $(= $value:literal)?),* $(,)?]) => {
        true $(&& $m.has($k))*
    };
    (@put_tag $o:ident (tagged $tag_key:literal) $v:ident [$($tag:literal)?] $sel:tt) => {
        let $o = $o.str($tag_key, $crate::json_rows!(@tag $v $($tag)?));
    };
    (@put_tag $o:ident (untagged) $v:ident $tag:tt $sel:tt) => {
        $crate::json_rows!(@put_head $o $sel);
    };

    (@any $name:ident named $v:ident) => { $name::$v { .. } };
    (@any $name:ident tuple $v:ident) => { $name::$v(..) };
    (@any $name:ident unit $v:ident) => { $name::$v };
    (@bind $name:ident named $v:ident $row:ident { $( ($f:ident $($spec:tt)*) )* }) => {
        $name::$v { $($f),* }
    };
    (@bind $name:ident tuple $v:ident $row:ident ($inner:ty)) => { $name::$v($row) };
    (@bind $name:ident unit $v:ident $row:ident ()) => { $name::$v };

    // Write the bound fields (or the flattened row) in table order.
    (@put_body $o:ident $row:ident {
        $( ($f:ident [$($k:literal)?] $t:ty [$($c:ident)?] [$($d:expr)?]) )*
    }) => {{
        $( let $o = <$crate::json_rows!(@codec $($c)?) as $crate::rows::Codec<$t>>::put(
            $o, $crate::json_rows!(@key $f $($k)?), $f); )*
        $o
    }};
    (@put_body $o:ident $row:ident ($inner:ty)) => { $crate::rows::Row::put_fields($row, $o) };
    (@put_body $o:ident $row:ident ()) => { $o };

    // Build `$path` from the members of `$m`.
    (@take_body ($($path:tt)*) $m:ident {
        $( ($f:ident [$($k:literal)?] $t:ty [$($c:ident)?] [$($d:expr)?]) )*
    }) => {
        $($path)* { $( $f: $crate::json_rows!(@take $m $f [$($k)?] $t [$($c)?] $($d)?), )* }
    };
    (@take_body ($($path:tt)*) $m:ident ($inner:ty)) => {
        $($path)*(<$inner as $crate::rows::Row>::take_fields($m)?)
    };
    (@take_body ($($path:tt)*) $m:ident ()) => { $($path)* };
    (@take $m:ident $f:ident [$($k:literal)?] $t:ty [$($c:ident)?]) => {
        <$crate::json_rows!(@codec $($c)?) as $crate::rows::Codec<$t>>::take(
            $m, $crate::json_rows!(@key $f $($k)?))?
    };
    (@take $m:ident $f:ident [$($k:literal)?] $t:ty [] $d:expr) => {
        $m.take_or::<$t>($crate::json_rows!(@key $f $($k)?), || $d)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::json_rows! {
        #[derive(Clone, Debug, PartialEq)]
        struct Inner: lenient {
            a: u64,
            b: Option<String> => IfSome,
        }
    }

    crate::json_rows! {
        #[derive(Clone, Debug, PartialEq)]
        struct Outer: strict ["type" = "Outer", "version" = 1] {
            name: String,
            count as "n": u64 = 7,
            inner: Option<Inner> => OrNull,
            list: Vec<Inner>,
            flat: Inner => Flat,
        }
    }

    crate::json_rows! {
        #[derive(Clone, Debug, PartialEq)]
        enum Tagged: strict, tagged "op" {
            Unit = "unit",
            Wrapped(Inner),
            Named { x: f64, on: bool => IfTrue },
        }
    }

    crate::json_rows! {
        #[derive(Clone, Debug, PartialEq)]
        enum Untagged: lenient, untagged {
            Both when ["a", "c"] { a: u64, c: u64 },
            Only when ["a"] { a: u64 },
            Marked when ["m" = "yes"],
            Payload when ["p"] { p: String => Raw },
        }
    }

    fn outer() -> Outer {
        let inner = |a, b: Option<&str>| Inner {
            a,
            b: b.map(str::to_string),
        };
        Outer {
            name: "x".into(),
            count: 3,
            inner: Some(inner(1, None)),
            list: vec![inner(2, Some("q")), inner(3, None)],
            flat: inner(4, Some("f")),
        }
    }

    #[test]
    fn struct_rows_write_their_table_and_read_it_back() {
        let line = encode(&outer());
        assert_eq!(
            line,
            r#"{"type":"Outer","version":1,"name":"x","n":3,"inner":{"a":1},"list":[{"a":2,"b":"q"},{"a":3}],"a":4,"b":"f"}"#
        );
        assert_eq!(decode::<Outer>(&line), Ok(outer()));
        let bare = r#"{"type":"Outer","version":1,"name":"x","inner":null,"list":[],"a":4}"#;
        let row = decode::<Outer>(bare).expect("defaults fill in");
        assert_eq!((row.count, row.inner, row.flat.b), (7, None, None));
    }

    #[test]
    fn struct_decode_errors_name_the_field() {
        for (line, error) in [
            (
                r#"{"type":"Outer","version":2}"#,
                "Outer: field `version`: expected 1",
            ),
            (
                r#"{"type":"Inner","version":1}"#,
                "Outer: field `type`: expected \"Outer\"",
            ),
            (r#"{"version":1}"#, "Outer: missing field `type`"),
            (
                r#"{"type":"Outer","version":1,"name":"x","n":"3"}"#,
                "Outer: field `n`: expected an unsigned integer",
            ),
            (
                r#"{"type":"Outer","version":1,"name":"x","inner":{"b":"q"},"list":[],"a":4}"#,
                "Outer: field `inner`: expected an object",
            ),
            (
                r#"{"type":"Outer","version":1,"name":"x","inner":null,"list":[],"a":4,"z":0}"#,
                "Outer: unknown field `z`",
            ),
        ] {
            assert_eq!(decode::<Outer>(line), Err(error.to_string()), "{line}");
        }
        // A lenient row ignores keys it does not declare.
        assert_eq!(
            decode::<Inner>(r#"{"z":[1],"a":5}"#),
            Ok(Inner { a: 5, b: None })
        );
    }

    #[test]
    fn tagged_rows_write_their_tag_first() {
        let rows = [
            (Tagged::Unit, r#"{"op":"unit"}"#),
            (
                Tagged::Wrapped(Inner { a: 1, b: None }),
                r#"{"op":"Wrapped","a":1}"#,
            ),
            (
                Tagged::Named { x: 0.5, on: true },
                r#"{"op":"Named","x":0.5,"on":true}"#,
            ),
            (
                Tagged::Named { x: 2.0, on: false },
                r#"{"op":"Named","x":2}"#,
            ),
        ];
        for (row, line) in rows {
            assert_eq!(row.put_fields(JsonObject::new()).finish(), line);
            let mut m = Fields::parse(line).unwrap();
            let tag = m.take_tag("op").unwrap();
            assert_eq!(row.kind(), tag);
            assert_eq!(Tagged::from_tag(&tag, &mut m), Ok(Some(row)));
        }
        let mut m = Fields::parse(r#"{"x":1,"y":2}"#).unwrap();
        assert_eq!(
            Tagged::from_tag("Named", &mut m),
            Err("Named: unknown field `y`".to_string())
        );
        assert_eq!(Tagged::from_tag("Nope", &mut m), Ok(None));
    }

    #[test]
    fn untagged_rows_are_chosen_by_their_keys_in_order() {
        let decode = |line: &str| Untagged::from_fields(&mut Fields::parse(line).unwrap());
        assert_eq!(
            decode(r#"{"c":2,"a":1}"#),
            Ok(Untagged::Both { a: 1, c: 2 })
        );
        assert_eq!(decode(r#"{"a":1,"z":0}"#), Ok(Untagged::Only { a: 1 }));
        assert_eq!(decode(r#"{"m":"yes"}"#), Ok(Untagged::Marked));
        assert_eq!(
            decode(r#"{"m":"no"}"#),
            Err("Marked: field `m`: expected \"yes\"".to_string())
        );
        let raw = r#"{"p":[{"q":"a \"b\", \"p\": {}"},1.50]}"#;
        assert_eq!(
            decode(raw),
            Ok(Untagged::Payload {
                p: r#"[{"q":"a \"b\", \"p\": {}"},1.50]"#.into()
            })
        );
        assert_eq!(
            decode(r#"{"b":1}"#),
            Err("no Untagged row matches the keys".to_string())
        );
        assert_eq!(
            Untagged::Marked.put_fields(JsonObject::new()).finish(),
            r#"{"m":"yes"}"#
        );
    }
}
