//! Quickstart: shred an XML document into relations and run XPath through
//! the PPF-based SQL translation.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ppf_core::XmlDb;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the document structure as a schema graph (DTD-style).
    let schema = xmlschema::parse_schema(
        "root library\n\
         library = shelf*\n\
         shelf @room = book*\n\
         book @isbn = title author* year\n\
         title : text\n\
         author : text\n\
         year : int\n",
    )?;

    // 2. Create the relational structures and load documents.
    let mut db = XmlDb::new(&schema)?;
    db.load_xml(
        "<library>\
           <shelf room='A'>\
             <book isbn='1'><title>XML and Databases</title>\
               <author>Georgiadis</author><author>Vassalos</author>\
               <year>2006</year></book>\
             <book isbn='2'><title>Relational Systems</title>\
               <author>Codd</author><year>1970</year></book>\
           </shelf>\
           <shelf room='B'>\
             <book isbn='3'><title>XPath in Practice</title>\
               <author>Vassalos</author><year>2005</year></book>\
           </shelf>\
         </library>",
    )?;
    db.finalize()?; // build the §3.1 indexes

    // 3. Run XPath. The engine splits the query into Primitive Path
    //    Fragments, emits SQL, and executes it on the built-in engine.
    for query in [
        "/library/shelf/book",
        "//book[author='Vassalos']/title",
        "//book[year>=2000]",
        "//shelf[@room='A']/book[count(author) = 2]",
    ] {
        let result = db.query(query)?;
        println!("XPath : {query}");
        println!(
            "SQL   : {}",
            result
                .sql()
                .unwrap_or_else(|| "(statically empty)".to_string())
        );
        println!(
            "rows  : {} (scanned {} rows, {} index probes)\n",
            result.rows.rows.len(),
            result.stats.rows_scanned,
            result.stats.index_probes
        );
    }
    Ok(())
}
