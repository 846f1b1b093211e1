exception Parse_error of string

type state = {
  input : string;
  mutable pos : int;
}

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let starts_with st prefix =
  let n = String.length prefix in
  st.pos + n <= String.length st.input && String.sub st.input st.pos n = prefix

let skip_string st prefix =
  if starts_with st prefix then st.pos <- st.pos + String.length prefix
  else fail st (Printf.sprintf "expected %S" prefix)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  while (match peek st with Some c when is_space c -> true | _ -> false) do
    advance st
  done

let skip_comment st =
  skip_string st "<!--";
  let rec go () =
    if starts_with st "-->" then skip_string st "-->"
    else if st.pos >= String.length st.input then fail st "unterminated comment"
    else begin
      advance st;
      go ()
    end
  in
  go ()

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let read_name st =
  let start = st.pos in
  while (match peek st with Some c when is_name_char c -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then fail st "expected a name";
  String.sub st.input start (st.pos - start)

let decode_entities st raw =
  let buf = Buffer.create (String.length raw) in
  let n = String.length raw in
  let i = ref 0 in
  while !i < n do
    if raw.[!i] = '&' then begin
      match String.index_from_opt raw !i ';' with
      | None -> fail st "unterminated entity"
      | Some j ->
        let name = String.sub raw (!i + 1) (j - !i - 1) in
        let repl =
          match name with
          | "amp" -> "&"
          | "lt" -> "<"
          | "gt" -> ">"
          | "quot" -> "\""
          | "apos" -> "'"
          | _ ->
            if String.length name > 1 && name.[0] = '#' then
              (* digits only, so the code is never negative; a run too long
                 for an int reads as out of range *)
              let prefix, digits, is_digit =
                if name.[1] = 'x' then
                  ("0x", String.sub name 2 (String.length name - 2), function
                    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                    | _ -> false)
                else
                  ("", String.sub name 1 (String.length name - 1), function
                    | '0' .. '9' -> true
                    | _ -> false)
              in
              if digits = "" || not (String.for_all is_digit digits) then
                fail st (Printf.sprintf "malformed character reference &%s;" name)
              else
                match int_of_string_opt (prefix ^ digits) with
                | Some code when code < 128 -> String.make 1 (Char.chr code)
                | _ -> fail st "non-ASCII character references are not supported"
            else fail st (Printf.sprintf "unknown entity &%s;" name)
        in
        Buffer.add_string buf repl;
        i := j + 1
    end
    else begin
      Buffer.add_char buf raw.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let read_attr_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
      advance st;
      q
    | _ -> fail st "expected a quoted attribute value"
  in
  let start = st.pos in
  while (match peek st with Some c when c <> quote -> true | _ -> false) do
    advance st
  done;
  let raw = String.sub st.input start (st.pos - start) in
  expect st quote;
  decode_entities st raw

let rec read_attrs st acc =
  skip_ws st;
  match peek st with
  | Some ('>' | '/') -> List.rev acc
  | Some _ ->
    let name = read_name st in
    skip_ws st;
    expect st '=';
    skip_ws st;
    let value = read_attr_value st in
    read_attrs st ((name, value) :: acc)
  | None -> fail st "unterminated start tag"

let rec read_element st =
  expect st '<';
  let tag = read_name st in
  let attrs = read_attrs st [] in
  match peek st with
  | Some '/' ->
    advance st;
    expect st '>';
    Xml.elem ~attrs tag []
  | Some '>' ->
    advance st;
    let children = read_content st tag [] in
    Xml.elem ~attrs tag children
  | _ -> fail st "malformed start tag"

and read_content st tag acc =
  if starts_with st "<!--" then begin
    skip_comment st;
    read_content st tag acc
  end
  else if starts_with st "</" then begin
    skip_string st "</";
    let close = read_name st in
    if close <> tag then
      fail st (Printf.sprintf "mismatched closing tag </%s> for <%s>" close tag);
    skip_ws st;
    expect st '>';
    List.rev acc
  end
  else if starts_with st "<" then read_content st tag (read_element st :: acc)
  else begin
    let start = st.pos in
    while (match peek st with Some c when c <> '<' -> true | None -> false | _ -> false) do
      advance st
    done;
    if st.pos >= String.length st.input then fail st "unterminated element";
    let raw = String.sub st.input start (st.pos - start) in
    let acc =
      if String.for_all is_space raw then acc
      else Xml.text (decode_entities st raw) :: acc
    in
    read_content st tag acc
  end

let parse input =
  let st = { input; pos = 0 } in
  skip_ws st;
  if starts_with st "<?" then begin
    match String.index_from_opt input st.pos '>' with
    | Some j -> st.pos <- j + 1
    | None -> fail st "unterminated XML declaration"
  end;
  skip_ws st;
  while starts_with st "<!--" do
    skip_comment st;
    skip_ws st
  done;
  let node = read_element st in
  skip_ws st;
  if st.pos <> String.length input then fail st "trailing content after document element";
  node

let parse_opt input = match parse input with n -> Some n | exception Parse_error _ -> None
